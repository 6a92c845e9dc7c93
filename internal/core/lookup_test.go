package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

func compressibleCore(seed int64) *soc.Core {
	chains := make([]int, 32)
	for i := range chains {
		chains[i] = 25
	}
	return &soc.Core{
		Name: "compr", Inputs: 20, Outputs: 16,
		ScanChains: chains, // 800 cells
		Patterns:   25, CareDensity: 0.03, Clustering: 0.8, DensityDecay: 0.5,
		Seed: seed,
	}
}

func TestBuildTableShape(t *testing.T) {
	c := compressibleCore(1)
	tab, err := BuildTable(c, TableOptions{MaxWidth: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.NoTDC) != 25 || len(tab.TDCExact) != 25 || len(tab.TDCBest) != 25 || len(tab.Best) != 25 {
		t.Fatal("table length wrong")
	}
	for u := 1; u <= 24; u++ {
		if !tab.NoTDC[u].Feasible {
			t.Errorf("NoTDC[%d] infeasible", u)
		}
		if tab.NoTDC[u].Width != u {
			t.Errorf("NoTDC[%d].Width = %d", u, tab.NoTDC[u].Width)
		}
		if !tab.Best[u].Feasible {
			t.Errorf("Best[%d] infeasible", u)
		}
	}
	// Widths below 3 cannot host a decompressor.
	if tab.TDCExact[1].Feasible || tab.TDCExact[2].Feasible || tab.TDCBest[2].Feasible {
		t.Error("TDC feasible below width 3")
	}
}

func TestBuildTableInvariants(t *testing.T) {
	c := compressibleCore(2)
	tab, err := BuildTable(c, TableOptions{MaxWidth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= 20; u++ {
		// Best is never worse than either pure option.
		if tab.NoTDC[u].better(tab.Best[u]) {
			t.Errorf("Best[%d] worse than NoTDC", u)
		}
		if tab.TDCBest[u].better(tab.Best[u]) {
			t.Errorf("Best[%d] worse than TDCBest", u)
		}
		// TDCBest times are non-increasing in width.
		if u > 1 && tab.TDCBest[u-1].Feasible && tab.TDCBest[u].Time > tab.TDCBest[u-1].Time {
			t.Errorf("TDCBest time increased from width %d (%d) to %d (%d)",
				u-1, tab.TDCBest[u-1].Time, u, tab.TDCBest[u].Time)
		}
		// Exact-width configurations consume exactly that width.
		if tab.TDCExact[u].Feasible && tab.TDCExact[u].Width != u {
			t.Errorf("TDCExact[%d].Width = %d", u, tab.TDCExact[u].Width)
		}
		// TDC m always lies in the width's band.
		if cfg := tab.TDCExact[u]; cfg.Feasible {
			lo, hi, err := selenc.MBand(u)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.M < lo || (cfg.M > hi && cfg.M != c.MaxWrapperChains()) {
				t.Errorf("TDCExact[%d].M = %d outside band [%d,%d]", u, cfg.M, lo, hi)
			}
		}
	}
	// On this sparse core, compression must win clearly at width >= 8.
	if tab.Best[8].UseTDC == false {
		t.Error("sparse core should choose TDC at width 8")
	}
	if tab.Best[8].Time*2 > tab.NoTDC[8].Time {
		t.Errorf("TDC advantage too small: %d vs %d", tab.Best[8].Time, tab.NoTDC[8].Time)
	}
}

// TestDeriveRowsTieBreaks pins deriveRows' two tie-breaks on a
// hand-built table, since no golden table has a tie: at equal (time,
// volume) TDCBest[u] keeps the narrower configuration TDCBest[u-1]
// rather than the wider TDCExact[u], and Best[u] keeps TDCBest[u]
// rather than an equal NoTDC[u]. A strict improvement still wins.
func TestDeriveRowsTieBreaks(t *testing.T) {
	tdc := func(w, m int, time, volume int64) Config {
		return Config{Feasible: true, UseTDC: true, Codec: CodecSelEnc, Width: w, M: m, Time: time, Volume: volume}
	}
	direct := func(w int, time, volume int64) Config {
		return Config{Feasible: true, Codec: CodecDirect, Width: w, M: w, Time: time, Volume: volume}
	}
	tab := newTable(TableOptions{MaxWidth: 5})
	for u := 1; u <= 5; u++ {
		tab.NoTDC[u] = direct(u, 1000, 1000)
	}
	tab.TDCExact[3] = tdc(3, 4, 100, 50)
	tab.TDCExact[4] = tdc(4, 9, 100, 50) // ties TDCBest[3]
	tab.NoTDC[4] = direct(4, 100, 50)    // ties TDCBest[4]
	tab.TDCExact[5] = tdc(5, 17, 100, 49)
	tab.NoTDC[5] = direct(5, 99, 1000)
	deriveRows(tab)

	for _, c := range []struct {
		name      string
		got, want Config
	}{
		{"TDCBest[4], tied with the narrower TDCBest[3]", tab.TDCBest[4], tab.TDCExact[3]},
		{"Best[4], NoTDC[4] tied with TDCBest[4]", tab.Best[4], tab.TDCExact[3]},
		{"TDCBest[5], a strictly lower volume", tab.TDCBest[5], tab.TDCExact[5]},
		{"Best[5], a strictly shorter direct test", tab.Best[5], tab.NoTDC[5]},
		{"Best[2], below the smallest TDC width", tab.Best[2], tab.NoTDC[2]},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, c.got, c.want)
		}
	}
}

func TestBuildTableDenseCorePrefersDirectOrTDC(t *testing.T) {
	// At ~60% care density compression buys little; Best must still be
	// well-formed and no worse than NoTDC.
	c := &soc.Core{
		Name: "dense", Inputs: 20, Outputs: 10, ScanChains: []int{50, 50, 50, 50},
		Patterns: 15, CareDensity: 0.6, Clustering: 0.3, Seed: 3,
	}
	tab, err := BuildTable(c, TableOptions{MaxWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= 16; u++ {
		if tab.Best[u].Time > tab.NoTDC[u].Time {
			t.Errorf("width %d: Best %d worse than NoTDC %d", u, tab.Best[u].Time, tab.NoTDC[u].Time)
		}
	}
}

func TestSampleBand(t *testing.T) {
	// Exhaustive when band fits.
	got := sampleBand(10, 14, 48)
	if len(got) != 5 || got[0] != 10 || got[4] != 14 {
		t.Errorf("sampleBand(10,14,48) = %v", got)
	}
	// Sampled: includes both edges, respects bound, strictly increasing.
	got = sampleBand(128, 255, 16)
	if len(got) > 16 || got[0] != 128 || got[len(got)-1] != 255 {
		t.Errorf("sampleBand(128,255,16) = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
	// Negative means exhaustive.
	if got := sampleBand(1, 100, -1); len(got) != 100 {
		t.Errorf("exhaustive sample = %d values", len(got))
	}
	if got := sampleBand(5, 9, 1); len(got) != 1 || got[0] != 9 {
		t.Errorf("sampleBand(5,9,1) = %v", got)
	}
}

func TestSweepTDC(t *testing.T) {
	c := compressibleCore(4)
	cfgs, err := SweepTDC(c, 16, 31) // the w = 7 band: k = ceil(log2(m+1)) = 5
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 16 {
		t.Fatalf("%d configs, want 16", len(cfgs))
	}
	for i, cfg := range cfgs {
		if cfg.M != 16+i || !cfg.Feasible || !cfg.UseTDC {
			t.Errorf("config %d: %+v", i, cfg)
		}
		if cfg.Width != 7 {
			t.Errorf("m=%d: width %d, want 7", cfg.M, cfg.Width)
		}
	}
	// Clamping to the core's maximum.
	cfgs, err = SweepTDC(c, c.MaxWrapperChains()-1, c.MaxWrapperChains()+100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 {
		t.Errorf("clamped sweep has %d configs, want 2", len(cfgs))
	}
	if _, err := SweepTDC(c, 500, 100); err == nil {
		t.Error("empty range accepted")
	}
}

func TestCacheMemoizes(t *testing.T) {
	c := compressibleCore(5)
	var cache Cache
	opts := TableOptions{MaxWidth: 12}
	t1, err := cache.Get(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cache.Get(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("cache rebuilt table for identical key")
	}
	t3, err := cache.Get(c, TableOptions{MaxWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Error("different options shared a table")
	}
}

// TestCacheGetSingleflight hammers one cache key from 16 goroutines and
// asserts exactly one BuildTable runs: concurrent callers must block on
// the in-flight build, not duplicate it.
func TestCacheGetSingleflight(t *testing.T) {
	c := compressibleCore(7)
	var cache Cache
	var builds atomic.Int64
	cache.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }

	const callers = 16
	tables := make([]*Table, callers)
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait() // maximize contention
			tables[i], errs[i] = cache.Get(c, TableOptions{MaxWidth: 12})
		}(i)
	}
	start.Done()
	done.Wait()

	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one key, want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if tables[i] != tables[0] {
			t.Errorf("caller %d got a different table", i)
		}
	}
	// Workers must not fragment the cache: same key modulo Workers.
	if tab, err := cache.Get(c, TableOptions{MaxWidth: 12, Workers: 4}); err != nil || tab != tables[0] {
		t.Errorf("Workers option fragmented the cache key (err %v)", err)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds after Workers-varied Get, want 1", n)
	}
}

// TestCacheContentAddressed asserts the cache keys on core content, not
// identity: a structurally identical core at a different address shares
// the entry (no second build), while any content change gets its own.
func TestCacheContentAddressed(t *testing.T) {
	var cache Cache
	var builds atomic.Int64
	cache.buildHook = func(*soc.Core, TableOptions) { builds.Add(1) }
	opts := TableOptions{MaxWidth: 12}

	c1 := compressibleCore(5)
	c2 := compressibleCore(5) // same content, distinct pointer
	t1, err := cache.Get(c1, opts)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cache.Get(c2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("structurally identical cores got different tables")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for identical content, want 1", n)
	}

	c3 := compressibleCore(5)
	c3.Name = "renamed"
	if _, err := cache.Get(c3, opts); err != nil {
		t.Fatal(err)
	}
	c4 := compressibleCore(6) // different generator seed
	if _, err := cache.Get(c4, opts); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 3 {
		t.Errorf("%d builds across three distinct contents, want 3", n)
	}
}

// TestBuildTableLoadsCubesOnce: a table build flattens its core's cubes
// once, on its producer, however many workers price them. Beyond a
// Workers-1 build, a Workers-8 build of a resident core allocates only
// its mirrors' kernel scratch and wrapper designs — less than one
// flattened copy of the test set, 8 bytes per care bit — where one
// evaluator per worker would load a copy on each worker pricing a band.
// The Workers-8 side takes the most of three builds, the Workers-1 side
// the least.
func TestBuildTableLoadsCubesOnce(t *testing.T) {
	c := soc.MustIndustrialCore("ckt-8")
	ts, err := c.TestSet() // generated and cached outside the measurement
	if err != nil {
		t.Fatal(err)
	}
	flat := 8 * uint64(ts.TotalCareBits())
	allocs := func(workers int) (lo, hi uint64) {
		lo = ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := BuildTable(c, TableOptions{MaxWidth: 16, BandSamples: 4, Workers: workers}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			n := after.TotalAlloc - before.TotalAlloc
			lo, hi = min(lo, n), max(hi, n)
		}
		return lo, hi
	}
	one, _ := allocs(1)
	_, eight := allocs(8)
	if eight >= one+flat {
		t.Errorf("Workers-8 build allocated %d B, Workers-1 %d B: %d B more, not below one flattened set (%d B)",
			eight, one, eight-one, flat)
	}
}

// TestSweepTDCForcedWindows holds SweepTDC, which prices every m as a
// band of its own on the table build's schedule, to Evaluator.TDC: at
// the residency rule's window and at windows forced through the seam —
// one cube, seven, a streamed core's 64 (all fused passes) and the whole
// set streamed as one window (the per-band sweep) — on one worker and
// on eight, every Config equals a fresh evaluator's at its m.
func TestSweepTDCForcedWindows(t *testing.T) {
	for _, c := range []*soc.Core{compressibleCore(27), decayCore(29)} {
		lo, hi := 2, min(40, c.MaxWrapperChains())
		ev, err := NewEvaluator(c)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Config, 0, hi-lo+1)
		for m := lo; m <= hi; m++ {
			cfg, err := ev.TDC(m, true)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, cfg)
		}
		for _, window := range []int{0, 1, 7, streamWindow, wholeSetWindow} {
			for _, workers := range []int{1, 8} {
				opts := TableOptions{Workers: workers, force: sweepForce{window: window}}
				got, err := sweepTDC(context.Background(), c, lo, hi, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s window=%d workers=%d: sweep differs from Evaluator.TDC", c.Name, window, workers)
				}
			}
		}
	}
}

// TestBuildTableWorkersDeterminism asserts the parallel build is
// byte-identical to the sequential one on d695 cores.
func TestBuildTableWorkersDeterminism(t *testing.T) {
	for _, c := range soc.D695().Cores[:5] {
		seq, err := BuildTable(c, TableOptions{MaxWidth: 24, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := BuildTable(c, TableOptions{MaxWidth: 24, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: Workers=8 table differs from Workers=1", c.Name)
		}
	}
}

// TestSweepTDCWorkersEquivalence asserts the parallel sweep matches the
// sequential one configuration-for-configuration.
func TestSweepTDCWorkersEquivalence(t *testing.T) {
	c := compressibleCore(9)
	seq, err := SweepTDCWorkers(c, 4, 31, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepTDCWorkers(c, 4, 31, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel sweep differs from sequential")
	}
	def, err := SweepTDC(c, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, def) {
		t.Error("default-workers sweep differs from sequential")
	}
}

func TestBuildTableErrors(t *testing.T) {
	c := compressibleCore(6)
	if _, err := BuildTable(c, TableOptions{MaxWidth: -1}); err == nil {
		t.Error("negative MaxWidth accepted")
	}
	bad := &soc.Core{Name: "bad", Inputs: 4, Patterns: 3, CareDensity: -1}
	if _, err := BuildTable(bad, TableOptions{MaxWidth: 8}); err == nil {
		t.Error("invalid core accepted")
	}
}

// TestBuildTablePruningGoldenEquivalence is the zero-loss guarantee of
// the lower-bound pruning: for every d695 and industrial core, the
// table built without pruning, sequentially or on 8 workers, must
// render to its section of the checked-in golden tables, which
// TestGoldenTables holds equal to the pruned build. Industrial cores
// use a reduced band sampling so the full matrix stays tractable under
// -race; d695 cores run with the default options.
func TestBuildTablePruningGoldenEquivalence(t *testing.T) {
	want := goldenTables(t)
	for _, gc := range goldenCases() {
		for _, workers := range []int{1, 8} {
			opts := gc.opts
			opts.Workers = workers
			opts.force.unpruned = true
			plain, err := BuildTable(gc.core, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenTable(t, want, gc.core.Name, plain, fmt.Sprintf("unpruned workers=%d", workers))
		}
	}
}

// sampledBandPoints counts the (w, m) points a table build with opts
// samples across its codeword-width bands — the candidates the band
// sweep either evaluates or prunes.
func sampledBandPoints(t *testing.T, c *soc.Core, opts TableOptions) int64 {
	t.Helper()
	opts = opts.withDefaults()
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
		sampled += int64(len(sampleBand(lo, min(hi, maxM), opts.BandSamples)))
	}
	return sampled
}

// TestPruneAccounting pins the bookkeeping of exact pruning in both
// sweep schedules — pre-pass skips and mid-pass abandonments alike: on
// every d695 core and one industrial core, at window 0 (the per-band
// sweep) and streamWindow (the fused sweep wherever the set spans
// several windows), every sampled band point is either a completed
// evaluation or a pruned candidate, globally (eval.tdc_evals +
// eval.pruned) and per core (prune.<core>.evals + prune.<core>.pruned),
// and every counter of the build is identical at Workers 1, 2 and 8.
func TestPruneAccounting(t *testing.T) {
	cases := goldenCases()[:len(soc.D695().Cores)+1] // d695, then ckt-1
	var bandSweeps, fusedSweeps int
	var prunedTotal int64
	for _, gc := range cases {
		c := gc.core
		sampled := sampledBandPoints(t, c, gc.opts)
		for _, window := range []int{0, streamWindow} {
			var want map[string]int64
			for _, workers := range []int{1, 2, 8} {
				opts := gc.opts
				opts.force.window = window
				opts.Workers = workers
				tel := telemetry.New()
				if _, err := buildTable(context.Background(), c, opts, tel); err != nil {
					t.Fatal(err)
				}
				// A counter a path registers without counting (the crew's
				// panic.recovered) reads as absent.
				got := make(map[string]int64)
				for name, v := range tel.Snapshot().Counters {
					if v != 0 {
						got[name] = v
					}
				}
				if want != nil {
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s window=%d workers=%d: counters %v differ from workers=1 %v",
							c.Name, window, workers, got, want)
					}
					continue
				}
				want = got
				if got["eval.passes"] > 0 {
					fusedSweeps++
				} else {
					bandSweeps++
				}
				prunedTotal += got["eval.pruned"]
				if n := got["eval.tdc_evals"] + got["eval.pruned"]; n != sampled {
					t.Errorf("%s window=%d: eval.tdc_evals %d + eval.pruned %d = %d, want %d sampled points",
						c.Name, window, got["eval.tdc_evals"], got["eval.pruned"], n, sampled)
				}
				evals, pruned := got["prune."+c.Name+".evals"], got["prune."+c.Name+".pruned"]
				if evals+pruned != sampled {
					t.Errorf("%s window=%d: prune.%s.evals %d + .pruned %d = %d, want %d sampled points",
						c.Name, window, c.Name, evals, pruned, evals+pruned, sampled)
				}
			}
		}
	}
	if bandSweeps == 0 || fusedSweeps == 0 || prunedTotal == 0 {
		t.Errorf("ran %d band and %d fused sweeps pruning %d candidates; want both schedules pruning",
			bandSweeps, fusedSweeps, prunedTotal)
	}
}
