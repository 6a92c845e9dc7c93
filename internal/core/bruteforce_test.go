package core

// Brute-force cross-check: on tiny SOCs, the heuristic optimizer must
// never beat an exhaustive enumeration of TAM partitions and core
// assignments (which would indicate broken accounting), and must stay
// within a modest factor of the true optimum (which bounds heuristic
// quality).

import (
	"testing"

	"soctap/internal/soc"
)

// bruteForceOptimum enumerates every partition of wtam wires into at
// most nCores buses and every assignment of cores to buses, returning
// the minimum makespan under the style's duration function. Cores on a
// bus run sequentially, so order within a bus is irrelevant.
func bruteForceOptimum(t *testing.T, s *soc.SOC, wtam int, style Style) int64 {
	t.Helper()
	tables := make([]*Table, len(s.Cores))
	for i, c := range s.Cores {
		tab, err := BuildTable(c, TableOptions{MaxWidth: wtam, BandSamples: -1})
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tab
	}
	n := len(s.Cores)
	best := int64(-1)

	var tryPartition func(widths []int)
	tryPartition = func(widths []int) {
		// Enumerate all assignments core -> bus.
		k := len(widths)
		assign := make([]int, n)
		var rec func(i int)
		rec = func(i int) {
			if i == n {
				busTime := make([]int64, k)
				for c, b := range assign {
					cfg := tables[c].Choose(style, widths[b])
					if !cfg.Feasible {
						return
					}
					busTime[b] += cfg.Time
				}
				var mk int64
				for _, bt := range busTime {
					if bt > mk {
						mk = bt
					}
				}
				if best < 0 || mk < best {
					best = mk
				}
				return
			}
			for b := 0; b < k; b++ {
				assign[i] = b
				rec(i + 1)
			}
		}
		rec(0)
	}

	// Enumerate partitions of wtam into 1..n positive parts
	// (non-increasing to avoid duplicates).
	var parts func(remaining, maxPart, depth int, cur []int)
	parts = func(remaining, maxPart, depth int, cur []int) {
		if remaining == 0 {
			if len(cur) > 0 {
				tryPartition(cur)
			}
			return
		}
		if depth == 0 {
			return
		}
		for p := min(maxPart, remaining); p >= 1; p-- {
			parts(remaining-p, p, depth-1, append(cur, p))
		}
	}
	parts(wtam, wtam, n, nil)
	if best < 0 {
		t.Fatal("brute force found no feasible plan")
	}
	return best
}

func tinySOC(seed int64) *soc.SOC {
	mk := func(name string, nChains, chainLen, pat int, density float64, s int64) *soc.Core {
		chains := make([]int, nChains)
		for i := range chains {
			chains[i] = chainLen
		}
		return &soc.Core{
			Name: name, Inputs: 6, Outputs: 5,
			ScanChains: chains, Patterns: pat,
			CareDensity: density, Clustering: 0.7, Seed: s,
		}
	}
	return &soc.SOC{
		Name: "tiny",
		Cores: []*soc.Core{
			mk("t1", 8, 12, 10, 0.06, seed),
			mk("t2", 6, 10, 8, 0.10, seed+1),
			mk("t3", 10, 8, 12, 0.05, seed+2),
		},
	}
}

func TestOptimizerNeverBeatsBruteForce(t *testing.T) {
	for _, style := range []Style{StyleNoTDC, StyleTDCPerCore} {
		for _, wtam := range []int{4, 6, 8} {
			s := tinySOC(100 + int64(wtam))
			opt := bruteForceOptimum(t, s, wtam, style)
			res, err := Optimize(s, wtam, Options{
				Style:  style,
				Tables: TableOptions{MaxWidth: wtam, BandSamples: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.TestTime < opt {
				t.Errorf("style %v W=%d: heuristic %d beats brute-force optimum %d (accounting bug)",
					style, wtam, res.TestTime, opt)
			}
			// Heuristic quality bound: within 40% of optimal on these
			// tiny instances.
			if float64(res.TestTime) > 1.4*float64(opt) {
				t.Errorf("style %v W=%d: heuristic %d vs optimum %d exceeds 1.4x",
					style, wtam, res.TestTime, opt)
			}
		}
	}
}
