package main

import (
	"os"
	"path/filepath"
	"testing"

	"soctap/internal/core"
	"soctap/internal/soc"
)

func TestParseStyle(t *testing.T) {
	cases := []struct {
		in   string
		want core.Style
		ok   bool
	}{
		{"no-tdc", core.StyleNoTDC, true},
		{"tdc-per-tam", core.StyleTDCPerTAM, true},
		{"tdc-per-core", core.StyleTDCPerCore, true},
		{"bogus", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := parseStyle(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseStyle(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("parseStyle(%q) accepted", c.in)
		}
	}
}

func TestLoadDesignBuiltin(t *testing.T) {
	s, err := loadDesign("d695")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "d695" {
		t.Errorf("loaded %q", s.Name)
	}
}

func TestLoadDesignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.soc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := soc.Write(f, soc.D695()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err := loadDesign(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cores) != 10 {
		t.Errorf("file design has %d cores", len(s.Cores))
	}
	if _, err := loadDesign("/nonexistent/file.soc"); err == nil {
		t.Error("missing file accepted")
	}
}
