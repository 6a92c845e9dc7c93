package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
	// points. Zero defaults to runtime.GOMAXPROCS(0); 1 runs entirely on
	// the calling goroutine. The table contents are bit-identical for
	// every setting (workers write indexed slots and the reduction is
	// sequential), so Workers is excluded from cache keys and from the
	// options recorded on the table.
	Workers int
	// DisablePruning turns off the incumbent lower-bound pruning of the
	// banded (w, m) sweep: the pre-pass bounds that skip a candidate
	// before pricing it (coreBound, designBound) and the mid-pass bound
	// that abandons one part-way through its cubes (tdcPoint.lowerBound,
	// in both sweep schedules). Pruning is exact — only provably
	// dominated candidates are dropped and the table is bit-identical
	// either way (the pruning golden-equivalence test) — so the knob
	// exists for verification and benchmark comparison and, like
	// Workers, is erased from cache keys and recorded options.
	DisablePruning bool
	// EvalWindow selects the evaluator's cube window (see
	// NewEvaluatorWindow): 0 picks automatically by core size (the cached
	// test set as one whole-set window, or DefaultEvalWindow past the
	// streaming threshold), > 0 streams the test set in windows of that
	// many cubes, EvalWindowAll streams the whole set as one window. The
	// window count picks the sweep schedule: one window runs the
	// per-band sweep over the kept window, several run the fused sweep.
	// Every setting produces the same table bit for bit (the golden and
	// streaming-equivalence gates), so EvalWindow only moves peak memory
	// and — like Workers — is erased from cache keys and from the options
	// recorded on the table.
	EvalWindow int
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
	o.DisablePruning = false
	o.EvalWindow = 0
	return o
}

// Validate reports whether the options can build a table: MaxWidth
// (after defaults) must be positive and EvalWindow a value
// NewEvaluatorWindow accepts. buildTable runs the same check; request
// boundaries call it to refuse bad options before any work starts.
func (o TableOptions) Validate() error {
	if w := o.withDefaults().MaxWidth; w < 1 {
		return fmt.Errorf("core: MaxWidth %d", w)
	}
	return checkEvalWindow(o.EvalWindow)
}

// resolveWorkers maps a Workers option to an actual pool size: zero (or
// negative) means one worker per available CPU, and the pool never
// exceeds the task count.
func resolveWorkers(workers, tasks int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// forEachEval runs fn(ev, i) for every i in [0, n) over a pool of
// workers, giving each worker its own Evaluator for the core (the
// per-worker scratch state of the hot kernel). Tasks must write results
// to indexed slots so the outcome is independent of scheduling; with
// workers <= 1 everything runs on the calling goroutine. The first
// error (by task index) is returned. A non-nil tel attaches kernel
// counters to every evaluator and accounts worker-slot busy time.
//
// ctx cancels the pool cooperatively: workers stop claiming tasks once
// ctx is done and the evaluators themselves check the context at every
// (w, m) kernel entry, so cancellation lands mid-band too. A panic in
// fn is contained on the worker that raised it and surfaces as a
// *PanicError naming point(i) — never as a process crash.
func forEachEval(ctx context.Context, c *soc.Core, workers, window, n int, tel *telemetry.Sink, point func(i int) string, fn func(ev *Evaluator, i int) error) error {
	if n <= 0 {
		return nil
	}
	busy := tel.Timer("eval.worker_busy")
	run := func(ev *Evaluator, i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				tel.Counter("panic.recovered").Inc()
				p := fmt.Sprintf("task %d", i)
				if point != nil {
					p = point(i)
				}
				err = newPanicError(c.Name, p, r)
			}
		}()
		return fn(ev, i)
	}
	workers = resolveWorkers(workers, n)
	if workers == 1 {
		ev, err := NewEvaluatorWindow(c, window)
		if err != nil {
			return err
		}
		ev.attachTelemetry(tel)
		ev.bindContext(ctx)
		if busy != nil {
			t0 := time.Now()
			defer func() { busy.Add(time.Since(t0)) }()
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(ev, i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var initOnce sync.Once
	var initErr error
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Backstop for panics outside run's own recovery (evaluator
			// construction, point): a panic on a worker goroutine that
			// escaped would kill the process, not just the call.
			defer func() {
				if r := recover(); r != nil {
					tel.Counter("panic.recovered").Inc()
					initOnce.Do(func() { initErr = newPanicError(c.Name, "worker setup", r) })
					failed.Store(true)
				}
			}()
			if busy != nil {
				t0 := time.Now()
				defer func() { busy.Add(time.Since(t0)) }()
			}
			ev, err := NewEvaluatorWindow(c, window)
			if err != nil {
				initOnce.Do(func() { initErr = err })
				failed.Store(true)
				return
			}
			ev.attachTelemetry(tel)
			ev.bindContext(ctx)
			for !failed.Load() {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(ev, i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return initErr
}

// Table holds, for one core, the best test configuration at every TAM
// width from 1 to MaxWidth, for each access style.
type Table struct {
	Core *soc.Core
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
// counters attach to every worker's evaluator, worker busy time is
// accounted, and the build itself is counted.
func buildTable(ctx context.Context, c *soc.Core, opts TableOptions, tel *telemetry.Sink) (*Table, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// This evaluator validates the core's test cubes up front, its window
	// count picks the TDC sweep schedule, and the fused sweep uses it as
	// its producer. Below the streaming threshold its construction also
	// generates the set, warming the cache every worker's Evaluator
	// shares; a streamed source generates nothing, keeping O(window)
	// residency.
	producer, err := NewEvaluatorWindow(c, opts.EvalWindow)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Core:     c,
		Opts:     opts.normalized(),
		NoTDC:    make([]Config, opts.MaxWidth+1),
		TDCExact: make([]Config, opts.MaxWidth+1),
		TDCBest:  make([]Config, opts.MaxWidth+1),
		Best:     make([]Config, opts.MaxWidth+1),
	}
	maxM := c.MaxWrapperChains()

	// Collect the TDC evaluation points: each codeword-width band is one
	// unit that sweeps its sampled m values highest first, pruning
	// candidates whose lower bound is strictly worse than the band
	// incumbent (see sweepBand and sweepBandsFused). Band-granular
	// incumbents keep both the winner and the prune counters
	// deterministic for any worker count.
	var bands []bandJob
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
	}

	// The no-TDC side only depends on the clamped chain count, so the
	// distinct designs are m = 1..min(MaxWidth, maxM); widths beyond
	// maxM reuse the maxM configuration with the width relabeled.
	directM := opts.MaxWidth
	if directM > maxM {
		directM = maxM
	}
	direct := make([]Config, directM+1)

	tel.Counter("tables.built").Inc()
	buildStart := time.Now()
	pc := pruneCounters{
		pruned:     tel.Counter("eval.pruned"),
		corePruned: tel.Counter("prune." + c.Name + ".pruned"),
		coreEvals:  tel.Counter("prune." + c.Name + ".evals"),
	}
	point := func(i int) string {
		if i < directM {
			return fmt.Sprintf("no-tdc m=%d", i+1)
		}
		return fmt.Sprintf("tdc band w=%d", bands[i-directM].w)
	}
	// The TDC sweep's schedule follows the evaluator's window count. One
	// window — the whole set, loaded once per evaluator and kept — runs
	// each band as one worker-pool task (sweepBand), a full pass over
	// the kept window per point. Several windows fuse: every loaded
	// window is priced against all active (w, m) points before the next
	// loads, so the source is traversed once per batch instead of once
	// per point. The no-TDC side is closed-form (no cube pass) and stays
	// on the plain worker pool either way.
	fused := producer.windows() > 1
	n := directM + len(bands)
	if fused {
		n = directM
	}
	err = forEachEval(ctx, c, opts.Workers, opts.EvalWindow, n, tel, point, func(ev *Evaluator, i int) error {
		if i < directM {
			cfg, err := ev.NoTDC(i + 1)
			if err != nil {
				return err
			}
			direct[i+1] = cfg
			return nil
		}
		b := &bands[i-directM]
		best, err := sweepBand(ev, b.w, b.ms, opts.DisablePruning, pc)
		if err != nil {
			return err
		}
		b.best = best
		return nil
	})
	if err == nil && fused && len(bands) > 0 {
		err = sweepBandsFused(ctx, producer, opts, bands, pc, tel)
	}
	if err != nil {
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
	for u := 1; u <= opts.MaxWidth; u++ {
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
	// One observation per completed build: the count mirrors
	// tables.built on clean runs (failed/cancelled builds are absent),
	// the distribution is wall clock.
	tel.Histogram("tables.build_seconds").Observe(time.Since(buildStart))
	return t, nil
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
func sweepBand(ev *Evaluator, w int, ms []int, disablePruning bool, pc pruneCounters) (Config, error) {
	var best Config
	for i := len(ms) - 1; i >= 0; i-- {
		m := ms[i]
		var bound Config
		if best.Feasible && !disablePruning {
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
	if lo < 1 {
		lo = 1
	}
	if maxM := c.MaxWrapperChains(); hi > maxM {
		hi = maxM
	}
	if hi < lo {
		return nil, fmt.Errorf("core: empty sweep range [%d,%d] for %s", lo, hi, c.Name)
	}
	out := make([]Config, hi-lo+1)
	point := func(i int) string { return fmt.Sprintf("tdc m=%d", lo+i) }
	err := forEachEval(ctx, c, workers, 0, len(out), nil, point, func(ev *Evaluator, i int) error {
		cfg, err := ev.TDC(lo+i, true)
		if err != nil {
			return err
		}
		out[i] = cfg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
