package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden lookup tables under testdata/")

// goldenCase is one checked-in reference table: a benchmark core, the
// options its table is built with, and the windows the build must
// reproduce it at (0 is the residency rule's, others forced through
// sweepForce).
type goldenCase struct {
	core    *soc.Core
	opts    TableOptions
	windows []int
}

// goldenCases covers every d695 core at the default options and every
// industrial core at reduced band sampling. Window 0 prices the whole
// set as one window (the per-band sweep); streamWindow splits the
// larger cores into several windows (the fused sweep), and window 1
// forces the fused sweep on every d695 core.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, c := range soc.D695().Cores {
		cases = append(cases, goldenCase{c, TableOptions{}, []int{0, streamWindow, 1}})
	}
	for _, name := range soc.IndustrialCoreNames() {
		cases = append(cases, goldenCase{soc.MustIndustrialCore(name), TableOptions{BandSamples: 12}, []int{0, streamWindow}})
	}
	return cases
}

// goldenFile returns the encoding key and the path of a core's golden
// table. The key is pinned to the core name, not the content hash, so
// the files track table contents alone.
func goldenFile(c *soc.Core) (key, path string) {
	return "golden/" + c.Name, filepath.Join("testdata", "golden_table_"+c.Name+".bin")
}

// TestGoldenTables is the independent oracle of the table build: the
// v2 encoding of every benchmark core's table must be byte-identical
// to the checked-in file under testdata/ at Workers 1, 2 and 8 and at
// every window of its case, and the matrix must run both sweep
// schedules. Regenerate the files with -update only when a change is
// meant to alter table contents.
func TestGoldenTables(t *testing.T) {
	var bandSweeps, fusedSweeps int
	for _, gc := range goldenCases() {
		key, path := goldenFile(gc.core)
		if *updateGolden {
			tbl, err := BuildTable(gc.core, gc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, encodeTableV2(key, tbl), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden table (regenerate with -update): %v", err)
		}
		for _, window := range gc.windows {
			for _, workers := range []int{1, 2, 8} {
				opts := gc.opts
				opts.force.window = window
				opts.Workers = workers
				tel := telemetry.New()
				tbl, err := buildTable(context.Background(), gc.core, opts, tel)
				if err != nil {
					t.Fatal(err)
				}
				if tel.Snapshot().Counters["eval.passes"] > 0 {
					fusedSweeps++
				} else {
					bandSweeps++
				}
				if !bytes.Equal(encodeTableV2(key, tbl), want) {
					t.Errorf("%s window=%d workers=%d: table differs from %s", gc.core.Name, window, workers, path)
				}
			}
		}
	}
	if bandSweeps == 0 || fusedSweeps == 0 {
		t.Errorf("golden matrix ran %d band and %d fused sweeps; want both schedules", bandSweeps, fusedSweeps)
	}
}
