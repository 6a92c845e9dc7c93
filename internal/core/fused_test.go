package core

import (
	"context"
	"reflect"
	"testing"

	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
	"soctap/internal/wrapper"
)

// TestFusedTableEquivalence holds the fused sweep to its oracle, the
// per-band sweep over one whole-set window: for every d695 core plus the
// decay and compressible synthetics, builds at EvalWindow 1 and 64, at
// the default and at a tiny fused batch size (band incumbents carried
// across passes), at Workers 1 and 8, must be deeply equal to the
// EvalWindowAll build. The schedule must follow the window count: a set
// spanning several windows runs fused passes, a single window runs none.
func TestFusedTableEquivalence(t *testing.T) {
	type tc struct {
		core *soc.Core
		opts TableOptions
	}
	var cases []tc
	for _, c := range soc.D695().Cores {
		cases = append(cases, tc{c, TableOptions{MaxWidth: 8, BandSamples: 3}})
	}
	cases = append(cases, tc{decayCore(13), TableOptions{MaxWidth: 12}})
	cases = append(cases, tc{compressibleCore(19), TableOptions{MaxWidth: 10, BandSamples: 4}})
	batches := []int{fusedBatchPoints, 3}
	defer func(old int) { fusedBatchPoints = old }(fusedBatchPoints)
	for _, cse := range cases {
		fusedBatchPoints = batches[0]
		whole := cse.opts
		whole.EvalWindow = EvalWindowAll
		oracle, err := BuildTable(cse.core, whole)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{1, DefaultEvalWindow} {
			ev, err := NewEvaluatorWindow(cse.core, window)
			if err != nil {
				t.Fatal(err)
			}
			fused := ev.windows() > 1
			for _, batch := range batches {
				fusedBatchPoints = batch
				for _, workers := range []int{1, 8} {
					opts := cse.opts
					opts.EvalWindow = window
					opts.Workers = workers
					tel := telemetry.New()
					got, err := buildTable(context.Background(), cse.core, opts, tel)
					if err != nil {
						t.Fatal(err)
					}
					if passes := tel.Snapshot().Counters["eval.passes"]; fused != (passes > 0) {
						t.Errorf("%s window=%d batch=%d workers=%d: %d fused passes over %d windows",
							cse.core.Name, window, batch, workers, passes, ev.windows())
					}
					if !reflect.DeepEqual(got, oracle) {
						t.Errorf("%s window=%d batch=%d workers=%d: table differs from the whole-set-window build",
							cse.core.Name, window, batch, workers)
					}
				}
			}
		}
	}
}

// TestFusedMidPassPruning pins the mid-pass drop machinery: on a core
// with compressible patterns and an exhaustive band sweep, the fused
// build must prune candidates (eval.pruned > 0), record its pass
// telemetry consistently (loads ≥ passes ≥ 1, at most one pass per
// batch of points), and still produce the exact table of the per-band
// sweep over one whole-set window.
func TestFusedMidPassPruning(t *testing.T) {
	c := compressibleCore(29)
	opts := TableOptions{MaxWidth: 10, BandSamples: -1, EvalWindow: 4}
	whole := opts
	whole.EvalWindow = EvalWindowAll
	plain, err := BuildTable(c, whole)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	fused, err := buildTable(context.Background(), c, opts, tel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fused, plain) {
		t.Fatal("fused table differs from the whole-set-window build")
	}
	sn := tel.Snapshot()
	passes := sn.Counters["eval.passes"]
	points := sn.Counters["eval.fused_points"]
	loads := sn.Counters["fused."+c.Name+".window_loads"]
	if passes < 1 || points < 1 {
		t.Fatalf("fused pass telemetry missing: passes=%d points=%d", passes, points)
	}
	if batches := (points + int64(fusedBatchPoints) - 1) / int64(fusedBatchPoints); passes > batches {
		t.Errorf("eval.passes = %d for %d points, want at most %d batches", passes, points, batches)
	}
	if loads < passes {
		t.Errorf("window_loads = %d < passes = %d", loads, passes)
	}
	if sn.Counters["fused."+c.Name+".passes"] != passes {
		t.Errorf("per-core passes %d != eval.passes %d", sn.Counters["fused."+c.Name+".passes"], passes)
	}
	if sn.Counters["fused."+c.Name+".points"] != points {
		t.Errorf("per-core points %d != eval.fused_points %d", sn.Counters["fused."+c.Name+".points"], points)
	}
	if pruned := sn.Counters["eval.pruned"]; pruned == 0 {
		t.Error("exhaustive fused sweep pruned nothing; expected incumbent/mid-pass drops")
	}
	// Pruned + evaluated must account for every sampled band point.
	var sampled int64
	maxM := c.MaxWrapperChains()
	for w := 3; w <= opts.MaxWidth; w++ {
		lo, hi, err := selenc.MBand(w)
		if err != nil {
			t.Fatal(err)
		}
		if lo > maxM {
			break
		}
		if hi > maxM {
			hi = maxM
		}
		sampled += int64(len(sampleBand(lo, hi, opts.BandSamples)))
	}
	pruned := sn.Counters["prune."+c.Name+".pruned"]
	evals := sn.Counters["prune."+c.Name+".evals"]
	if pruned+evals != sampled {
		t.Errorf("pruned %d + evals %d != %d sampled band points", pruned, evals, sampled)
	}
}

// TestFusedCountersWorkerInvariance is the bench-big-smoke counter
// gate at test scale: on a smoke-scale giant-profile core, every fused
// and pruning counter of a streamed table build must be identical at
// Workers 1 and 8 (pricing is partitioned across workers but
// accumulation, pruning and pass accounting are sequential), and so
// must the tables.
func TestFusedCountersWorkerInvariance(t *testing.T) {
	c := &soc.Core{
		Name: "smoke", Inputs: 40, Outputs: 30,
		ScanChains: balancedChainsForTest(3000, 50),
		Patterns:   1024, CareDensity: 0.05, Clustering: 0.6,
		DensityDecay: 0.9, Seed: 42,
	}
	opts := TableOptions{MaxWidth: 10, BandSamples: 3, EvalWindow: DefaultEvalWindow}
	keys := []string{
		"eval.passes", "eval.fused_points", "eval.window_loads",
		"eval.window_cubes", "eval.pruned", "eval.tdc_evals",
		"fused." + c.Name + ".passes", "fused." + c.Name + ".points",
		"fused." + c.Name + ".window_loads",
		"prune." + c.Name + ".pruned", "prune." + c.Name + ".evals",
	}
	var base *Table
	var want map[string]int64
	for _, workers := range []int{1, 8} {
		o := opts
		o.Workers = workers
		tel := telemetry.New()
		tbl, err := buildTable(context.Background(), freshCore(c), o, tel)
		if err != nil {
			t.Fatal(err)
		}
		sn := tel.Snapshot()
		got := make(map[string]int64, len(keys))
		for _, k := range keys {
			got[k] = sn.Counters[k]
		}
		if base == nil {
			base, want = tbl, got
			if want["eval.passes"] == 0 {
				t.Fatal("smoke build did not take the fused path")
			}
			continue
		}
		if !reflect.DeepEqual(tbl.Best, base.Best) || !reflect.DeepEqual(tbl.TDCExact, base.TDCExact) {
			t.Errorf("workers=%d: table differs from workers=1", workers)
		}
		for _, k := range keys {
			if got[k] != want[k] {
				t.Errorf("workers=%d: counter %s = %d, want %d", workers, k, got[k], want[k])
			}
		}
	}
}

// TestFusedWindowKernelZeroAlloc is the steady-state allocation gate on
// the fused window kernel: once a point's design is prepared and the
// window planes are warm, pricing a window against a point — on the
// producer and on a mirror alike — must not allocate.
func TestFusedWindowKernelZeroAlloc(t *testing.T) {
	c := compressibleCore(3)
	ev, err := NewEvaluatorWindow(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ev.windows() < 2 {
		t.Fatal("expected a multi-window evaluator")
	}
	newPoint := func(m int) *fusedPoint {
		d, err := wrapper.New(c, m)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(selenc.PayloadBits(m))
		return &fusedPoint{m: m, w: k + 2, k: k, d: d, si: int64(d.ScanIn), so: int64(d.ScanOut)}
	}
	p := newPoint(8)
	mir := ev.mirror()
	mp := newPoint(12)
	ev.beginPass()
	if !ev.nextWindow() {
		t.Fatal("empty first window")
	}
	// Warm: design prep, lazy stimulus map, slice-plane sizing.
	ev.priceWindowPoint(p)
	mir.priceWindowPoint(mp)
	if allocs := testing.AllocsPerRun(20, func() {
		ev.priceWindowPoint(p)
		mir.priceWindowPoint(mp)
	}); allocs != 0 {
		t.Errorf("steady-state fused window kernel allocates %.1f times per round", allocs)
	}
	if p.totalCW <= 0 || p.timeAcc <= 0 {
		t.Errorf("pricing accumulated nothing: totalCW=%d timeAcc=%d", p.totalCW, p.timeAcc)
	}
}

// TestBuildTableBandBoundaries covers the sampleBand/MBand interplay at
// the edges buildTable actually hits: the single-point w=3 band
// (lo == hi == 1), BandSamples 1 picking the (clamped) top edge of
// every band, and a band clamped by MaxWrapperChains mid-range.
func TestBuildTableBandBoundaries(t *testing.T) {
	for _, c := range []*soc.Core{smallCore(21), compressibleCore(23)} {
		maxM := c.MaxWrapperChains()
		const maxWidth = 16
		tbl, err := BuildTable(c, TableOptions{MaxWidth: maxWidth, BandSamples: 1})
		if err != nil {
			t.Fatal(err)
		}
		clamped := false
		for w := 3; w <= maxWidth; w++ {
			lo, hi, err := selenc.MBand(w)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tbl.TDCExact[w]
			if lo > maxM {
				if cfg.Feasible {
					t.Errorf("%s w=%d: band [%d,%d] above maxM %d but feasible", c.Name, w, lo, hi, maxM)
				}
				continue
			}
			want := hi
			if want > maxM {
				want = maxM
				if lo < maxM {
					clamped = true // band truncated strictly mid-range
				}
			}
			if w == 3 && (lo != 1 || hi != 1) {
				t.Fatalf("w=3 band = [%d,%d], want the single point [1,1]", lo, hi)
			}
			if !cfg.Feasible {
				t.Errorf("%s w=%d: band [%d,%d] feasible range non-empty but infeasible", c.Name, w, lo, want)
				continue
			}
			if cfg.M != want {
				t.Errorf("%s w=%d: BandSamples=1 picked m=%d, want top edge %d", c.Name, w, cfg.M, want)
			}
		}
		if !clamped {
			t.Fatalf("%s: maxM %d never clamps a band mid-range; adjust the test core", c.Name, maxM)
		}
	}
	// sampleBand unit edges feeding the matrix above.
	if got := sampleBand(1, 1, 48); len(got) != 1 || got[0] != 1 {
		t.Errorf("sampleBand(1,1,48) = %v, want [1]", got)
	}
	if got := sampleBand(4, 4, -1); len(got) != 1 || got[0] != 4 {
		t.Errorf("sampleBand(4,4,-1) = %v, want [4]", got)
	}
	if got := sampleBand(8, 15, 1); len(got) != 1 || got[0] != 15 {
		t.Errorf("sampleBand(8,15,1) = %v, want [15]", got)
	}
}
