package main

import (
	"testing"
	"time"
)

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(4, 16, 30*time.Second, 5*time.Minute, 10, 20, "4M", 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxJobs != 4 || cfg.MaxQueue != 16 || cfg.RatePerSec != 10 || cfg.Burst != 20 {
		t.Errorf("flag passthrough wrong: %+v", cfg)
	}
	if cfg.MaxBodyBytes != 4<<20 {
		t.Errorf("MaxBodyBytes = %d, want %d", cfg.MaxBodyBytes, 4<<20)
	}
}

func TestBuildConfigErrors(t *testing.T) {
	if _, err := buildConfig(0, 0, 0, 0, 0, 0, "nope", 0); err == nil {
		t.Error("bad -max-body accepted")
	}
}
