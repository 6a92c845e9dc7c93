// Fused single-pass (w, m) sweep: a table build whose evaluator reads
// the test set in several windows prices every evaluation point of a
// batch against each loaded cube window before the next window loads,
// instead of running one full pass over the test set per point. One
// producer evaluator streams the cube source once per batch; each
// window is flattened (and, on the dense path, scattered into flat
// planes) exactly once and shared read-only with a crew of mirror
// evaluators that carry the per-point partial state forward. The
// per-pass evaluator cursor of tdcCost is replaced by per-point
// accumulators (codeword totals and the overlapped-shift time sum),
// and the band sweep's incumbent
// pruning becomes mid-pass: a point whose running lower bound is
// already strictly lex-worse than the best upper bound among its
// band's peers (or the band incumbent from earlier batches) drops out
// at a window boundary. Both pruning rules are exact, so fused tables
// are identical to the per-band sweep's over one whole-set window —
// the fused-equivalence and golden gates of `make check` — while
// `eval.window_loads` falls from O(points × windows) to
// O(batches × windows).
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soctap/internal/selenc"
	"soctap/internal/telemetry"
	"soctap/internal/wrapper"
)

// fusedBatchPoints bounds how many evaluation points share one
// streamed pass. Each in-flight point pins its wrapper design (and, on
// sparse windows, that design's stimulus map), so the batch size
// trades pass count against peak memory; 64 keeps a giant-profile
// band sweep at a handful of passes while the resident designs stay
// far below one window of cube data. A variable so tests can force
// multi-batch schedules on small cores.
var fusedBatchPoints = 64

// fusedPoint is the per-point partial state of one (w, m) evaluation
// riding a fused pass: the design and its cost-model constants, the
// running accumulators that replace the per-pass cursor, and the
// resolved configuration once the pass completes.
type fusedPoint struct {
	band int // index into the band jobs
	m    int
	w    int64 // codeword width CodewordWidth(m)
	k    int64 // payload bits
	d    *wrapper.Design
	si   int64
	so   int64
	// ubcw is an admissible per-pattern codeword upper bound: si slice
	// headers plus at most min(m, 2·GroupCount(m)) operation codewords
	// per slice. Paired with the per-pattern lower bound of si (one
	// header per slice), it brackets every unseen pattern's cost for
	// the mid-pass pruning rule.
	ubcw int64

	totalCW int64 // codewords emitted so far
	timeAcc int64 // cw_1 + Σ_{j>1} max(cw_j, so) so far

	pruned bool
	cfg    Config
}

// bandUB is the running best (lex-min) upper bound of one band during
// a prune step.
type bandUB struct {
	t, v int64
	ok   bool
	seen bool
}

// fusedCounters carries the (nil-safe) fusion telemetry: passes and
// points globally and per core, plus per-core window loads — the
// inputs of the pass-amortization table in the text report.
type fusedCounters struct {
	passes     *telemetry.Counter
	points     *telemetry.Counter
	corePasses *telemetry.Counter
	corePoints *telemetry.Counter
	coreLoads  *telemetry.Counter
}

// sweepBandsFused evaluates every band of a multi-window table build
// through the fused pass machinery, streaming the producer's source and
// filling each band's best configuration. The result is bit-identical
// to running sweepBand per band: points are folded into their band
// incumbents in sweepBand's own order (descending m, replace on lex-<=),
// and every pruning rule only discards points whose true cost is
// provably strictly worse than another feasible configuration of the
// same band.
func sweepBandsFused(ctx context.Context, producer *Evaluator, opts TableOptions, bands []bandJob, pc pruneCounters, tel *telemetry.Sink) error {
	c := producer.core
	producer.attachTelemetry(tel)
	producer.bindContext(ctx)
	fc := fusedCounters{
		passes:     tel.Counter("eval.passes"),
		points:     tel.Counter("eval.fused_points"),
		corePasses: tel.Counter("fused." + c.Name + ".passes"),
		corePoints: tel.Counter("fused." + c.Name + ".points"),
		coreLoads:  tel.Counter("fused." + c.Name + ".window_loads"),
	}

	// Flatten the evaluation points in band order, descending m within
	// each band — the order sweepBand visits them — then batch. A band
	// larger than a batch spans several; its incumbent carries across
	// them exactly like sweepBand's running best.
	type ptRef struct{ band, m int }
	queue := make([]ptRef, 0, 64)
	for bi := range bands {
		ms := bands[bi].ms
		for i := len(ms) - 1; i >= 0; i-- {
			queue = append(queue, ptRef{bi, ms[i]})
		}
	}

	ubs := make([]bandUB, len(bands))
	batch := make([]*fusedPoint, 0, fusedBatchPoints)
	for start := 0; start < len(queue); start += fusedBatchPoints {
		end := min(start+fusedBatchPoints, len(queue))
		if err := ctx.Err(); err != nil {
			return err
		}
		// Batch setup: build the designs and apply sweepBand's pre-pass
		// bounds against the incumbents earlier batches established.
		batch = batch[:0]
		for _, r := range queue[start:end] {
			b := &bands[r.band]
			if b.best.Feasible && !opts.DisablePruning {
				if bt, bv := coreBound(producer, r.m, b.w); boundWorse(bt, bv, b.best) {
					pc.pruned.Inc()
					pc.corePruned.Inc()
					continue
				}
			}
			d, err := wrapper.New(c, r.m)
			if err != nil {
				return err
			}
			if b.best.Feasible && !opts.DisablePruning {
				if bt, bv := designBound(producer, d, b.w); boundWorse(bt, bv, b.best) {
					pc.pruned.Inc()
					pc.corePruned.Inc()
					continue
				}
			}
			k := int64(selenc.PayloadBits(r.m))
			si := int64(d.ScanIn)
			ub := int64(r.m)
			if g := 2 * int64(selenc.GroupCount(r.m)); g < ub {
				ub = g
			}
			batch = append(batch, &fusedPoint{
				band: r.band, m: r.m, w: k + 2, k: k, d: d,
				si: si, so: int64(d.ScanOut), ubcw: si * (1 + ub),
			})
		}
		fc.points.Add(int64(len(batch)))
		fc.corePoints.Add(int64(len(batch)))
		if len(batch) == 0 {
			continue
		}
		if err := runFusedPass(ctx, producer, opts, bands, ubs, batch, pc, fc, tel); err != nil {
			return err
		}
		// Fold the completed points into the band incumbents in queue
		// order (descending m), replacing on lex-<= so equal-cost points
		// resolve to the smallest m exactly as sweepBand does.
		for _, p := range batch {
			if p.pruned {
				continue
			}
			pc.coreEvals.Inc()
			if b := &bands[p.band]; !b.best.better(p.cfg) {
				b.best = p.cfg
			}
		}
	}
	return nil
}

// runFusedPass streams one pass of the cube source, pricing every
// window against every still-active point of the batch and running the
// deterministic mid-pass prune step at each window boundary. On
// return, every non-pruned point carries its exact configuration.
func runFusedPass(ctx context.Context, producer *Evaluator, opts TableOptions, bands []bandJob, ubs []bandUB, pts []*fusedPoint, pc pruneCounters, fc fusedCounters, tel *telemetry.Sink) error {
	fc.passes.Inc()
	fc.corePasses.Inc()
	workers := resolveWorkers(opts.Workers, len(pts))
	var crew *fusedCrew
	if workers > 1 {
		crew = newFusedCrew(ctx, producer, workers, tel)
		defer crew.close()
	}

	active := append([]*fusedPoint(nil), pts...)
	var loads int64
	producer.beginPass()
	for len(active) > 0 && producer.nextWindow() {
		loads++
		if err := ctx.Err(); err != nil {
			return err
		}
		if crew == nil {
			for _, p := range active {
				producer.priceWindowPoint(p)
			}
		} else if err := crew.window(active); err != nil {
			return err
		}
		// The prune step is sequential and runs on exact, worker-order
		// independent accumulators, so the drop decisions — and with
		// them the prune counters and the window-load count — are
		// identical for every worker count.
		if !opts.DisablePruning {
			active = pruneFusedWindow(producer.passPos, producer.patterns, bands, ubs, active, pc)
		}
	}
	fc.coreLoads.Add(loads)

	for _, p := range pts {
		if p.pruned {
			continue
		}
		producer.tdcEvals.Inc()
		p.cfg = Config{
			Feasible: true,
			UseTDC:   true,
			Codec:    CodecSelEnc,
			Width:    int(p.w),
			M:        p.m,
			Time:     p.timeAcc + int64(producer.patterns) + p.so,
			Volume:   p.totalCW * p.w,
		}
	}
	return nil
}

// priceWindowPoint costs the loaded window against one point's
// accumulators: per cube, si slice headers plus the encoding operation
// count, summed into the codeword total and the overlapped-shift time
// term (cw_1 plain, max(cw_j, so) beyond). Exactly tdcCost's inner
// loop, with the cursor state carried by the point instead of the
// pass. Steady state is allocation-free (gate-enforced).
func (e *Evaluator) priceWindowPoint(p *fusedPoint) {
	e.kernelPrepare(p.d)
	si, so, k := p.si, p.so, p.k
	totalCW, timeAcc := p.totalCW, p.timeAcc
	base := e.win.start
	for lj := 0; lj < e.win.count; lj++ {
		cw := si + e.patternOps(lj, k, true)
		totalCW += cw
		if base+lj == 0 {
			timeAcc += cw
		} else if cw > so {
			timeAcc += cw
		} else {
			timeAcc += so
		}
	}
	p.totalCW, p.timeAcc = totalCW, timeAcc
}

// pruneFusedWindow is the deterministic mid-pass prune step: with pos
// of patterns cubes priced, a point's final (time, volume) is bracketed
// by closed-form bounds on the rem remaining cubes —
//
//	LB: every pattern emits at least its si slice headers, and each
//	    remaining one adds at least max(si, so) cycles;
//	UB: no pattern emits more than ubcw codewords, so each remaining
//	    one adds at most max(ubcw, so) cycles.
//
// A point whose LB is strictly lex-worse than the lex-min UB among its
// band's peers (seeded with the band incumbent, which is exact) can
// never win the band: some feasible configuration is strictly better.
// A point is never pruned against itself (its LB is componentwise <=
// its own UB), and lex-equal candidates are never pruned, so the
// surviving set always contains the band winner with sweepBand's
// smallest-m tie-break intact.
func pruneFusedWindow(pos, patterns int, bands []bandJob, ubs []bandUB, active []*fusedPoint, pc pruneCounters) []*fusedPoint {
	if pos >= patterns {
		return active
	}
	rem := int64(patterns - pos)
	for i := range ubs {
		ubs[i] = bandUB{}
	}
	for _, p := range active {
		ub := &ubs[p.band]
		if !ub.seen {
			ub.seen = true
			if b := bands[p.band].best; b.Feasible {
				ub.t, ub.v, ub.ok = b.Time, b.Volume, true
			}
		}
		maxcw := p.ubcw
		if p.so > maxcw {
			maxcw = p.so
		}
		ut := p.timeAcc + rem*maxcw + int64(patterns) + p.so
		uv := (p.totalCW + rem*p.ubcw) * p.w
		if !ub.ok || ut < ub.t || (ut == ub.t && uv < ub.v) {
			ub.t, ub.v, ub.ok = ut, uv, true
		}
	}
	out := active[:0]
	for _, p := range active {
		ub := ubs[p.band]
		maxL := p.si
		if p.so > maxL {
			maxL = p.so
		}
		lt := p.timeAcc + rem*maxL + int64(patterns) + p.so
		lv := (p.totalCW + rem*p.si) * p.w
		if ub.ok && (lt > ub.t || (lt == ub.t && lv > ub.v)) {
			p.pruned = true
			pc.pruned.Inc()
			pc.corePruned.Inc()
			continue
		}
		out = append(out, p)
	}
	return out
}

// fusedCrew is the worker pool of one fused pass: mirrors of the
// producer share its loaded window and claim points through an atomic
// cursor, one synchronized round per window. Point accumulation stays
// worker-order independent because each point is priced by exactly one
// worker per window and windows are totally ordered by the barrier.
type fusedCrew struct {
	ctx   context.Context
	core  string
	ready chan []*fusedPoint
	done  sync.WaitGroup
	next  atomic.Int64

	failed  atomic.Bool
	errOnce sync.Once
	err     error

	workers int
	busy    *telemetry.Timer
	panics  *telemetry.Counter
}

func newFusedCrew(ctx context.Context, producer *Evaluator, workers int, tel *telemetry.Sink) *fusedCrew {
	cr := &fusedCrew{
		ctx:     ctx,
		core:    producer.core.Name,
		ready:   make(chan []*fusedPoint),
		workers: workers,
		busy:    tel.Timer("eval.worker_busy"),
		panics:  tel.Counter("panic.recovered"),
	}
	for i := 0; i < workers; i++ {
		ev := producer.mirror()
		go func() {
			for pts := range cr.ready {
				cr.priceRound(ev, pts)
			}
		}()
	}
	return cr
}

// window prices one loaded window across the crew and blocks until
// every active point has been costed (or the round aborted).
func (cr *fusedCrew) window(pts []*fusedPoint) error {
	cr.next.Store(0)
	cr.done.Add(cr.workers)
	for i := 0; i < cr.workers; i++ {
		cr.ready <- pts
	}
	cr.done.Wait()
	if cr.failed.Load() {
		if cr.err != nil {
			return cr.err
		}
		return cr.ctx.Err()
	}
	return cr.ctx.Err()
}

// priceRound is one worker's share of one window: claim points until
// the cursor runs out, containing panics as *PanicError values naming
// the point (never a process crash).
func (cr *fusedCrew) priceRound(ev *Evaluator, pts []*fusedPoint) {
	defer cr.done.Done()
	var cur *fusedPoint
	defer func() {
		if r := recover(); r != nil {
			cr.panics.Inc()
			point := "fused pass"
			if cur != nil {
				point = fmt.Sprintf("fused tdc w=%d m=%d", cur.w, cur.m)
			}
			cr.errOnce.Do(func() { cr.err = newPanicError(cr.core, point, r) })
			cr.failed.Store(true)
		}
	}()
	if cr.busy != nil {
		t0 := time.Now()
		defer func() { cr.busy.Add(time.Since(t0)) }()
	}
	for !cr.failed.Load() && cr.ctx.Err() == nil {
		i := int(cr.next.Add(1)) - 1
		if i >= len(pts) {
			return
		}
		cur = pts[i]
		ev.priceWindowPoint(cur)
	}
}

// close releases the crew's goroutines.
func (cr *fusedCrew) close() { close(cr.ready) }
