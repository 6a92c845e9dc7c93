package core

import (
	"context"
	"fmt"
	"time"

	"soctap/internal/par"
	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
	"soctap/internal/wrapper"
)

// TableOptions controls per-core lookup table construction.
type TableOptions struct {
	// MaxWidth is the largest TAM width the table covers. Zero defaults
	// to 64.
	MaxWidth int
	// BandSamples bounds the number of m values evaluated inside each
	// codeword-width band. Bands no larger than the bound are swept
	// exhaustively; larger bands are sampled uniformly, always including
	// both band edges. Zero defaults to 48; negative means exhaustive.
	BandSamples int
	// Workers bounds the goroutines used to evaluate the table's (w, m)
	// points, and in an optimization (Options.Tables) the goroutines
	// building its per-core tables too. Zero defaults to
	// runtime.GOMAXPROCS(0); 1 runs entirely on the calling goroutine.
	// The table contents are bit-identical for every setting (workers
	// write indexed slots and the reduction is sequential), so Workers
	// is excluded from cache keys and from the options recorded on the
	// table.
	Workers int
	// force is this package's test seam (sweepForce); like Workers it is
	// erased from cache keys and from the options recorded on the table.
	force sweepForce
}

// sweepForce overrides a table build or a sweep for this package's
// tests, which hold every forced build to the zero value's, the
// production build: window > 0 streams the test set in windows of that
// many cubes whatever soc.Core.StreamsCubes says (and so picks the
// sweep schedule), and unpruned turns off every incumbent bound of the
// banded sweep (coreBound, designBound and tdcPoint.lowerBound).
type sweepForce struct {
	window   int
	unpruned bool
}

func (o TableOptions) withDefaults() TableOptions {
	if o.MaxWidth == 0 {
		o.MaxWidth = 64
	}
	if o.BandSamples == 0 {
		o.BandSamples = 48
	}
	return o
}

// normalized is withDefaults plus the erasure of options that do not
// affect table contents — the identity used for cache keys and recorded
// in Table.Opts.
func (o TableOptions) normalized() TableOptions {
	o = o.withDefaults()
	o.Workers = 0
	o.force = sweepForce{}
	return o
}

// forEachEval runs fn(ev, i) for every i in [0, n) on the worker pool
// (par.Do) over one build's evaluators: worker w prices on evs[w],
// which is the build's producer for worker 0 and, for every other
// worker, a mirror of it made on the worker's first task and kept for
// the build's later fan-outs. evs is as long as the largest fan-out's
// worker count. Tasks must write results to indexed slots so the
// outcome is independent of scheduling; the first error by task index
// is returned. A non-nil tel observes each task's wall time in
// eval.task_seconds.
//
// ctx cancels the pool cooperatively: workers stop claiming tasks once
// ctx is done and the evaluators themselves check the context at every
// (w, m) kernel entry, so cancellation lands mid-band too. A panic in
// fn is contained on the worker that raised it and surfaces as a
// *PanicError naming point(i) — never as a process crash.
func forEachEval(ctx context.Context, evs []*Evaluator, n int, tel *telemetry.Sink, point func(i int) string, fn func(ev *Evaluator, i int) error) error {
	taskTime := tel.Histogram("eval.task_seconds")
	return par.Do(ctx, len(evs), n, func(w, i int) (err error) {
		defer contain(&err, tel, evs[0].core.Name, func() string { return point(i) })
		if taskTime != nil {
			defer func(t0 time.Time) { taskTime.Observe(time.Since(t0)) }(time.Now())
		}
		if evs[w] == nil {
			evs[w] = evs[0].mirror()
		}
		return fn(evs[w], i)
	})
}

// Table holds, for one core, the best test configuration at every TAM
// width from 1 to MaxWidth, for each access style. It holds its options
// and its four rows, nothing of the core it was built from, so a cached
// table keeps no core's test set alive.
type Table struct {
	Opts TableOptions

	// NoTDC[u] is the direct-access configuration using u wrapper chains
	// (clamped to the core's maximum useful chains).
	NoTDC []Config
	// TDCExact[u] is the best decompressor configuration whose input
	// width is exactly u, i.e. the best m in u's band (infeasible when
	// the band lies wholly above the core's maximum chains or u < 3).
	TDCExact []Config
	// TDCBest[u] is the best decompressor configuration with input
	// width at most u (unused TAM wires are left idle).
	TDCBest []Config
	// Best[u] is the proposed style's choice: the better of NoTDC[u]
	// and TDCBest[u].
	Best []Config
}

// BuildTable constructs the lookup table for one core by exhaustive
// wrapper design on the no-TDC side and banded (w, m) exploration on the
// TDC side, exactly as Section 2 of the paper prescribes. The (w, m)
// evaluations — the dominant CPU cost of every experiment — fan out
// over Opts.Workers goroutines; the result is bit-identical to a
// sequential build.
func BuildTable(c *soc.Core, opts TableOptions) (*Table, error) {
	return buildTable(context.Background(), c, opts, nil)
}

// BuildTableContext is BuildTable governed by ctx: cancellation is
// observed between evaluation points and inside the kernels themselves,
// so a cancelled build returns ctx.Err() promptly. A nil ctx behaves
// like context.Background(), and an uncancelled build is bit-identical
// to BuildTable.
func BuildTableContext(ctx context.Context, c *soc.Core, opts TableOptions) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return buildTable(ctx, c, opts, nil)
}

// buildTable is BuildTable with an optional telemetry sink: kernel
// counters attach to the build's evaluators, worker busy time is
// accounted, and the build itself is counted.
func buildTable(ctx context.Context, c *soc.Core, opts TableOptions, tel *telemetry.Sink) (*Table, error) {
	opts = opts.withDefaults()
	if opts.MaxWidth < 1 {
		return nil, fmt.Errorf("core: MaxWidth %d", opts.MaxWidth)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := newTable(opts.normalized())
	maxM := c.MaxWrapperChains()

	// Collect the TDC evaluation points: each codeword-width band is one
	// unit that sweeps its sampled m values highest first, pruning
	// candidates whose lower bound is strictly worse than the band
	// incumbent (see sweepBand and sweepBandsFused). Band-granular
	// incumbents keep both the winner and the prune counters
	// deterministic for any worker count.
	var bands []bandJob
	points := 0
	for w := 3; w <= opts.MaxWidth; w++ {
		lo, hi, err := selenc.MBand(w)
		if err != nil {
			return nil, err
		}
		if lo > maxM {
			break // all wider bands are infeasible too
		}
		if hi > maxM {
			hi = maxM
		}
		bands = append(bands, bandJob{w: w, ms: sampleBand(lo, hi, opts.BandSamples)})
		points += len(bands[len(bands)-1].ms)
	}

	// The no-TDC side only depends on the clamped chain count, so the
	// distinct designs are m = 1..min(MaxWidth, maxM); widths beyond
	// maxM reuse the maxM configuration with the width relabeled.
	directM := opts.MaxWidth
	if directM > maxM {
		directM = maxM
	}
	direct := make([]Config, directM+1)

	// The build's one producer validates the core's test cubes up front
	// and, below the streaming threshold, generates the set, warming the
	// cache on the core; a streamed source generates nothing, keeping
	// O(window) residency.
	evs, err := newEvaluators(ctx, c, opts, directM+points, tel)
	if err != nil {
		return nil, err
	}
	tel.Counter("tables.built").Inc()
	buildStart := time.Now()
	pc := pruneCounters{
		pruned:     tel.Counter("eval.pruned"),
		corePruned: tel.Counter("prune." + c.Name + ".pruned"),
		coreEvals:  tel.Counter("prune." + c.Name + ".evals"),
	}
	if err := sweep(ctx, evs, opts.force.unpruned, direct, bands, pc, tel); err != nil {
		if canceled(err) {
			tel.Counter("cancel.table_builds").Inc()
		}
		return nil, err
	}

	// Deterministic reduction, identical to the sequential sweep order.
	for u := 1; u <= opts.MaxWidth; u++ {
		m := u
		if m > directM {
			m = directM
		}
		cfg := direct[m]
		// Width is the full TAM allocation even when chains are clamped.
		cfg.Width = u
		t.NoTDC[u] = cfg
	}
	for _, b := range bands {
		t.TDCExact[b.w] = b.best
	}
	deriveRows(t)
	// One observation per completed build: the count mirrors
	// tables.built on clean runs (failed/cancelled builds are absent),
	// the distribution is wall clock.
	tel.Histogram("tables.build_seconds").Observe(time.Since(buildStart))
	return t, nil
}

// newTable returns a table under normalized options opts, every row
// zero at widths 0..MaxWidth; the four rows share one allocation.
func newTable(opts TableOptions) *Table {
	n := opts.MaxWidth + 1
	rows := make([]Config, 4*n)
	return &Table{Opts: opts, NoTDC: rows[:n:n], TDCExact: rows[n : 2*n : 2*n],
		TDCBest: rows[2*n : 3*n : 3*n], Best: rows[3*n:]}
}

// deriveRows computes TDCBest and Best from NoTDC and TDCExact: the
// reduction that ends a table build, and a cache entry's decoding,
// which stores only the two source rows.
func deriveRows(t *Table) {
	for u := 1; u < len(t.Best); u++ {
		best := Config{}
		if u >= 3 {
			best = t.TDCBest[u-1]
			if t.TDCExact[u].better(best) {
				best = t.TDCExact[u]
			}
		}
		t.TDCBest[u] = best
		if t.NoTDC[u].better(best) {
			t.Best[u] = t.NoTDC[u]
		} else {
			t.Best[u] = best
		}
	}
}

// newEvaluators prepares the evaluators of one table build or sweep
// whose largest fan-out has n tasks: its producer, which loads the test
// set, checks ctx at every kernel entry and counts into tel, and a slot
// for every other worker of that fan-out, where forEachEval puts a
// mirror of the producer.
func newEvaluators(ctx context.Context, c *soc.Core, opts TableOptions, n int, tel *telemetry.Sink) ([]*Evaluator, error) {
	producer, err := newEvaluator(c, opts.force.window)
	if err != nil {
		return nil, err
	}
	producer.attachTelemetry(tel)
	producer.bindContext(ctx)
	evs := make([]*Evaluator, par.Workers(opts.Workers, n))
	evs[0] = producer
	return evs, nil
}

// sweep runs a table build's or a sweep's evaluations on its
// evaluators: the direct-access configuration of every m in
// [1, len(direct)) into direct[m], and every band's best TDC
// configuration into the band. The TDC schedule follows the producer's
// window count. One window — the whole set, loaded once by the producer
// before the pool starts and shared by its mirrors — runs each band as
// one worker-pool task (sweepBand), a full pass over the kept window
// per point, in the same fan-out as the direct-access designs. Several
// windows fuse (sweepBandsFused): every loaded window is priced against
// all active points before the next loads, so the source is traversed
// once per batch of points instead of once per point. The direct-access
// side is closed-form (no cube pass) and stays on the plain fan-out
// either way.
func sweep(ctx context.Context, evs []*Evaluator, unpruned bool, direct []Config, bands []bandJob, pc pruneCounters, tel *telemetry.Sink) error {
	nd := max(len(direct)-1, 0)
	fused := evs[0].windows() > 1 && len(bands) > 0
	n := nd
	if !fused && len(bands) > 0 {
		evs[0].keep()
		n += len(bands)
	}
	point := func(i int) string {
		if i < nd {
			return fmt.Sprintf("no-tdc m=%d", i+1)
		}
		b := &bands[i-nd]
		return fmt.Sprintf("tdc band w=%d m=%d..%d", b.w, b.ms[0], b.ms[len(b.ms)-1])
	}
	err := forEachEval(ctx, evs, n, tel, point, func(ev *Evaluator, i int) error {
		if i < nd {
			cfg, err := ev.NoTDC(i + 1)
			direct[i+1] = cfg
			return err
		}
		b := &bands[i-nd]
		var err error
		b.best, err = sweepBand(ev, b.w, b.ms, unpruned, pc)
		return err
	})
	if err != nil || !fused {
		return err
	}
	return sweepBandsFused(ctx, evs, unpruned, bands, pc, tel)
}

// bandJob is one codeword-width band of the TDC sweep: the sampled m
// values and, once swept, the band's winning configuration.
type bandJob struct {
	w    int
	ms   []int
	best Config
}

// pruneCounters carries the (nil-safe) telemetry counters of the band
// sweep: pruned candidates globally and pruned/evaluated per core.
type pruneCounters struct {
	pruned     *telemetry.Counter
	corePruned *telemetry.Counter
	coreEvals  *telemetry.Counter
}

// drop accounts one pruned candidate.
func (pc pruneCounters) drop() {
	pc.pruned.Inc()
	pc.corePruned.Inc()
}

// sweepBand finds the best TDC configuration in one codeword-width
// band, sweeping the sampled m values from highest to lowest. With
// pruning enabled, each candidate is first checked against two
// admissible lower bounds — one from the core alone (no wrapper
// design), then one from the exact wrapper depths — and skipped when
// the bound is already strictly lex-worse (time, then volume) than the
// incumbent; a candidate that survives them is priced against the
// incumbent and abandoned mid-pass once its running lower bound
// (tdcPoint.lowerBound) is strictly lex-worse.
//
// The result is identical to evaluating every candidate: all three
// bounds are true lower bounds on (time, volume), so a pruned
// candidate's actual cost is strictly worse than the incumbent and can
// never be the band winner; lex-equal candidates are never pruned
// (their bound is not strictly worse) and ties resolve to the smallest
// m exactly as an ascending first-win reduction would.
func sweepBand(ev *Evaluator, w int, ms []int, unpruned bool, pc pruneCounters) (Config, error) {
	var best Config
	for i := len(ms) - 1; i >= 0; i-- {
		m := ms[i]
		var bound Config
		if best.Feasible && !unpruned {
			if bt, bv := coreBound(ev, m, w); boundWorse(bt, bv, best) {
				pc.drop()
				continue
			}
			d, err := ev.Design(m)
			if err != nil {
				return Config{}, err
			}
			if bt, bv := designBound(ev, d, w); boundWorse(bt, bv, best) {
				pc.drop()
				continue
			}
			bound = best
		}
		cfg, ok, err := ev.tdc(m, true, bound)
		if err != nil {
			return Config{}, err
		}
		if !ok {
			pc.drop()
			continue
		}
		pc.coreEvals.Inc()
		// Replace on lex-<=: at equal (time, volume) the smaller m wins,
		// matching the ascending-order reduction.
		if !best.better(cfg) {
			best = cfg
		}
	}
	return best, nil
}

// boundWorse reports whether a (time, volume) lower bound is strictly
// lex-worse than the incumbent — the pruning condition.
func boundWorse(bt, bv int64, best Config) bool {
	return bt > best.Time || (bt == best.Time && bv > best.Volume)
}

// coreBound is an admissible (time, volume) lower bound for the TDC
// configuration at m wrapper chains, computed from the core alone:
//
//	si >= max(longest scan chain, ceil(stimulus bits / m))
//	so >= max(longest scan chain, ceil(response bits / m))
//
// (any wrapper chain holding the longest internal scan chain is at
// least that deep, and m chains must share all cells), and then
//
//	τ = cw_1 + Σ_{j>1} max(cw_j, so) + p + so >= si + (p-1)·max(si,so) + p + so
//	V = totalCW·w               >= p·si·w
//
// since every pattern emits at least one codeword per scan-in slice
// (the slice headers).
func coreBound(ev *Evaluator, m, w int) (timeLB, volLB int64) {
	si := max((ev.stimBits+m-1)/m, ev.maxScan)
	so := max((ev.respBits+m-1)/m, ev.maxScan)
	return slicesBound(ev.patterns, int64(si), int64(so), int64(w))
}

// designBound is coreBound with the exact scan-in/scan-out depths of a
// built wrapper design — tighter, at the price of the design itself.
func designBound(ev *Evaluator, d *wrapper.Design, w int) (timeLB, volLB int64) {
	return slicesBound(ev.patterns, int64(d.ScanIn), int64(d.ScanOut), int64(w))
}

func slicesBound(p int, si, so, w int64) (timeLB, volLB int64) {
	timeLB = int64(p) + so
	if p >= 1 {
		maxL := si
		if so > maxL {
			maxL = so
		}
		timeLB += si + int64(p-1)*maxL
	}
	return timeLB, int64(p) * si * w
}

// sampleBand returns the m values to evaluate in [lo, hi]: exhaustive
// when the band fits within `samples`, else `samples` points spread
// uniformly and including both edges. samples < 0 means exhaustive.
func sampleBand(lo, hi, samples int) []int {
	n := hi - lo + 1
	if samples < 0 || n <= samples {
		out := make([]int, 0, n)
		for m := lo; m <= hi; m++ {
			out = append(out, m)
		}
		return out
	}
	if samples == 1 {
		return []int{hi}
	}
	out := make([]int, 0, samples)
	prev := -1
	for i := 0; i < samples; i++ {
		m := lo + (n-1)*i/(samples-1)
		if m != prev {
			out = append(out, m)
			prev = m
		}
	}
	return out
}

// SweepTDC evaluates every m in [lo, hi] (inclusive, clamped to the
// core's feasible range) with the decompressor enabled, returning one
// Config per m in order, using one worker per available CPU. This
// drives the Figure 2 analysis.
func SweepTDC(c *soc.Core, lo, hi int) ([]Config, error) {
	return SweepTDCWorkers(c, lo, hi, 0)
}

// SweepTDCWorkers is SweepTDC with an explicit worker bound (zero means
// runtime.GOMAXPROCS(0), 1 is fully sequential). The result is
// identical for every bound.
func SweepTDCWorkers(c *soc.Core, lo, hi, workers int) ([]Config, error) {
	return SweepTDCContext(context.Background(), c, lo, hi, workers)
}

// SweepTDCContext is SweepTDCWorkers governed by ctx: cancellation is
// observed between m points and inside the kernels, so a cancelled
// sweep returns ctx.Err() promptly. A nil ctx behaves like
// context.Background(); an uncancelled sweep is identical to
// SweepTDCWorkers.
func SweepTDCContext(ctx context.Context, c *soc.Core, lo, hi, workers int) ([]Config, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return sweepTDC(ctx, c, lo, hi, TableOptions{Workers: workers})
}

// sweepTDC is SweepTDCContext under table options, through which the
// package's tests force a window. It runs the table build's TDC
// schedule with every m as a band of its own: no band has an
// incumbent, so nothing is pruned and each band's best is the Config
// Evaluator.TDC gives at its m, and a streamed core's sweep takes the
// fused pass like its table build.
func sweepTDC(ctx context.Context, c *soc.Core, lo, hi int, opts TableOptions) ([]Config, error) {
	if lo < 1 {
		lo = 1
	}
	if maxM := c.MaxWrapperChains(); hi > maxM {
		hi = maxM
	}
	if hi < lo {
		return nil, fmt.Errorf("core: empty sweep range [%d,%d] for %s", lo, hi, c.Name)
	}
	bands := make([]bandJob, hi-lo+1)
	ms := make([]int, len(bands))
	for i := range bands {
		ms[i] = lo + i
		bands[i] = bandJob{w: selenc.CodewordWidth(ms[i]), ms: ms[i : i+1]}
	}
	evs, err := newEvaluators(ctx, c, opts, len(bands), nil)
	if err != nil {
		return nil, err
	}
	if err := sweep(ctx, evs, opts.force.unpruned, nil, bands, pruneCounters{}, nil); err != nil {
		return nil, err
	}
	out := make([]Config, len(bands))
	for i, b := range bands {
		out[i] = b.best
	}
	return out, nil
}
