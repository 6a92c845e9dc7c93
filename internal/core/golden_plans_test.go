package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"soctap/internal/soc"
)

// goldenPlansPath is the checked-in rendering of every golden plan.
var goldenPlansPath = filepath.Join("testdata", "golden_plans.txt")

// goldenPlanDesigns are the paper's benchmark SOCs: d695, d2758 and the
// industrial System1..System4.
func goldenPlanDesigns() []*soc.SOC {
	designs := []*soc.SOC{soc.D695(), soc.D2758()}
	for _, name := range soc.SystemNames() {
		designs = append(designs, soc.MustSystem(name))
	}
	return designs
}

// renderGoldenPlans optimizes every design at W_TAM 8, 16, ..., 64 under
// each style, with and without MergeSearch and NaiveOrder, and renders
// each plan: the partition in bus order, makespan, volume, hardware
// totals, and every schedule item with its core's full Config.
func renderGoldenPlans(t *testing.T, designs []*soc.SOC, cache *Cache, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range designs {
		for wtam := 8; wtam <= 64; wtam += 8 {
			for _, style := range []Style{StyleNoTDC, StyleTDCPerTAM, StyleTDCPerCore} {
				for _, merge := range []bool{false, true} {
					for _, naive := range []bool{false, true} {
						res, err := Optimize(s, wtam, Options{
							Style: style, Cache: cache, Tables: TableOptions{Workers: workers},
							MergeSearch: merge, NaiveOrder: naive,
						})
						if err != nil {
							t.Fatalf("%s W_TAM=%d %v merge=%v naive=%v: %v", s.Name, wtam, style, merge, naive, err)
						}
						fmt.Fprintf(&buf, "%s W=%d %v merge=%v naive=%v: buses %v makespan %d volume %d wires %d decomp %d ffs %d gates %d\n",
							s.Name, wtam, style, merge, naive, res.Partition, res.TestTime, res.Volume,
							res.InternalWires, res.Decompressors, res.DecompFFs, res.DecompGates)
						for i, it := range res.Schedule.Items {
							fmt.Fprintf(&buf, "  %s bus %d start %d dur %d %v\n",
								res.Choices[i].Core, it.Bus, it.Start, it.Duration, res.Choices[i].Config)
						}
					}
				}
			}
		}
	}
	return buf.Bytes()
}

// TestGoldenPlans is the independent oracle of the architecture search
// and the schedule: the plans of every paper design must be
// byte-identical to testdata/golden_plans.txt at Workers 1, 2 and 8.
// Regenerate the file with -update only when a change is meant to alter
// plans.
func TestGoldenPlans(t *testing.T) {
	designs := goldenPlanDesigns()
	var cache Cache
	for _, workers := range []int{1, 2, 8} {
		got := renderGoldenPlans(t, designs, &cache, workers)
		if *updateGolden && workers == 1 {
			if err := os.WriteFile(goldenPlansPath, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(goldenPlansPath)
		if err != nil {
			t.Fatalf("reading golden plans (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: plans differ from %s at %s", workers, goldenPlansPath, firstDiff(got, want))
		}
	}
}

// firstDiff names the first line on which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length: got %d lines, want %d", len(g), len(w))
}
