package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden tables and plans under testdata/")

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

// goldenTablesPath is the checked-in rendering of every golden table.
var goldenTablesPath = filepath.Join("testdata", "golden_tables.txt")

// renderTable renders core name's table as text: a header line naming
// the core and the table's options, then one line per Config of each
// row, at every width the row holds.
func renderTable(name string, t *Table) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "table %s maxwidth=%d bandsamples=%d\n", name, t.Opts.MaxWidth, t.Opts.BandSamples)
	for _, row := range []struct {
		name string
		cfgs []Config
	}{{"NoTDC", t.NoTDC}, {"TDCExact", t.TDCExact}, {"TDCBest", t.TDCBest}, {"Best", t.Best}} {
		for u, cfg := range row.cfgs {
			fmt.Fprintf(&buf, "%s %d %v\n", row.name, u, cfg)
		}
	}
	return buf.Bytes()
}

// goldenTables reads the checked-in rendering, one section per core.
func goldenTables(t *testing.T) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenTablesPath)
	if err != nil {
		t.Fatalf("reading golden tables (regenerate with -update): %v", err)
	}
	sections := make(map[string][]byte)
	var name string
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("table ")); ok {
			name = string(bytes.Fields(rest)[0])
		}
		sections[name] = append(sections[name], line...)
	}
	return sections
}

// checkGoldenTable reports whether tbl, built for core name, renders to
// that core's section of the golden tables.
func checkGoldenTable(t *testing.T, want map[string][]byte, name string, tbl *Table, what string) {
	t.Helper()
	if got := renderTable(name, tbl); !bytes.Equal(got, want[name]) {
		t.Errorf("%s %s: table differs from %s at %s", name, what, goldenTablesPath, firstDiff(got, want[name]))
	}
}

// TestGoldenTables is the independent oracle of the table build: the
// rendering of every benchmark core's table must be byte-identical to
// its section of testdata/golden_tables.txt at Workers 1, 2 and 8 and
// at every window of its case, and the matrix must run both sweep
// schedules. Regenerate the file with -update only when a change is
// meant to alter table contents.
func TestGoldenTables(t *testing.T) {
	if *updateGolden {
		var all []byte
		for _, gc := range goldenCases() {
			tbl, err := BuildTable(gc.core, gc.opts)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, renderTable(gc.core.Name, tbl)...)
		}
		if err := os.WriteFile(goldenTablesPath, all, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := goldenTables(t)
	var bandSweeps, fusedSweeps int
	for _, gc := range goldenCases() {
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
				checkGoldenTable(t, want, gc.core.Name, tbl, fmt.Sprintf("window=%d workers=%d", window, workers))
			}
		}
	}
	if bandSweeps == 0 || fusedSweeps == 0 {
		t.Errorf("golden matrix ran %d band and %d fused sweeps; want both schedules", bandSweeps, fusedSweeps)
	}
}
