package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"
	"time"
)

func scheduleBytes(t *testing.T, due []time.Duration) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, due); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestPoissonScheduleSeeded checks that one seed gives a byte-identical
// schedule, another seed a different one, at about the asked rate.
func TestPoissonScheduleSeeded(t *testing.T) {
	a := scheduleBytes(t, poissonArrivals(7, 500, 10*time.Second))
	b := scheduleBytes(t, poissonArrivals(7, 500, 10*time.Second))
	if !bytes.Equal(a, b) {
		t.Fatal("two schedules from seed 7 differ")
	}
	if bytes.Equal(a, scheduleBytes(t, poissonArrivals(8, 500, 10*time.Second))) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	due := poissonArrivals(7, 500, 10*time.Second)
	if n := len(due); n < 4700 || n > 5300 {
		t.Errorf("%d arrivals in 10 s at 500/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v out of order or past the end", i, due[i])
		}
	}
}

// TestOpenLoopTimesFromDue stalls the first request of a one-connection
// loop: the second, due 1 ms later, must be charged the stall in both
// its lateness and its latency.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 30 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	st := openLoop(context.Background(), time.Now(), due, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	}, nil)
	if st.latency[0] < stall {
		t.Errorf("stalled request latency %v, want at least %v", st.latency[0], stall)
	}
	for i := 1; i < len(due); i++ {
		if st.late[i] < stall-due[i] {
			t.Errorf("request %d late by %v, want at least %v", i, st.late[i], stall-due[i])
		}
		if st.latency[i] < st.late[i] {
			t.Errorf("request %d latency %v below its lateness %v", i, st.latency[i], st.late[i])
		}
	}
}

// TestOpenLoopStopsOnCancel ends a loop early: arrivals due after the
// cancellation are never issued, and the stats cover the issued ones.
func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	due := []time.Duration{0, time.Millisecond, time.Hour}
	st := openLoop(ctx, time.Now(), due, 1, func(i int) error {
		if i == 1 {
			cancel()
		}
		return nil
	}, nil)
	if len(st.latency) != 2 {
		t.Errorf("issued %d arrivals, want the 2 due before the cancellation", len(st.latency))
	}
}
