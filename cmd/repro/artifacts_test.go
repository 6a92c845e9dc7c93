package main

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"testing"

	"soctap/internal/core"
	"soctap/internal/experiments"
	"soctap/internal/telemetry"
)

// TestReproAllMatchesArtifacts is the artifact gate: `repro all` must
// reproduce the checked-in artifacts.txt, apart from its timing fields,
// both cold, on an Engine over an empty table-cache directory, and warm,
// on a second Engine with a fresh cache over the directory the first run
// filled — the second run loads every cached table from disk.
func TestReproAllMatchesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: `repro all` takes seconds")
	}
	if raceEnabled {
		t.Skip("the gate checks output, not concurrency; too slow under the race detector")
	}
	golden, err := os.ReadFile("../../artifacts.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := maskTiming(string(golden))

	dir := t.TempDir()
	for _, run := range []string{"cold", "warm"} {
		cache, err := core.NewCache(dir, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		sink := telemetry.New()
		e := &experiments.Engine{Cache: cache, Telemetry: sink}
		var out bytes.Buffer
		if err := runExperiments(context.Background(), e, &out, "all"); err != nil {
			t.Fatalf("%s run: %v", run, err)
		}
		if line, got, exp := firstDiff(maskTiming(out.String()), want); line > 0 {
			t.Errorf("%s run differs from artifacts.txt at line %d:\n got: %q\nwant: %q", run, line, got, exp)
		}
		cn := sink.Snapshot().Counters
		if run == "cold" && cn["diskcache.hits"] != 0 {
			t.Errorf("cold run: %d disk hits on an empty directory", cn["diskcache.hits"])
		}
		if run == "warm" && (cn["diskcache.misses"] != 0 || cn["diskcache.hits"] == 0) {
			t.Errorf("warm run: %d disk hits, %d misses; want every table from disk", cn["diskcache.hits"], cn["diskcache.misses"])
		}
	}
}

var regenerated = regexp.MustCompile(`^\[(\w+) regenerated in [0-9.]+s\]$`)

// maskTiming blanks the fields of `repro all` output that vary from run
// to run: each artifact's "regenerated in" time, and Table 3's
// cpu_nc(s) and cpu_c(s) columns. Table 3's lines are compared as
// whitespace-separated fields, since a wider CPU figure re-pads the
// whole table.
func maskTiming(out string) string {
	lines := strings.Split(out, "\n")
	inTab3 := false
	for i, line := range lines {
		switch {
		case regenerated.MatchString(line):
			lines[i] = regenerated.ReplaceAllString(line, "[$1 regenerated in *s]")
			inTab3 = false
		case strings.HasPrefix(line, "Table 3:"):
			inTab3 = true
		case inTab3 && strings.Trim(line, "-") == "":
			lines[i] = "-"
		case inTab3:
			f := strings.Fields(line)
			if len(f) == 13 { // the column header and each design row
				f[6], f[9] = "*", "*"
			}
			lines[i] = strings.Join(f, " ")
		}
	}
	return strings.Join(lines, "\n")
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, with both lines, or 0 when they are equal.
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return i + 1, gl, wl
		}
	}
	return 0, "", ""
}
