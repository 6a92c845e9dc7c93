// Fused single-pass (w, m) sweep: a table build whose evaluator reads
// the test set in several windows prices every evaluation point of a
// batch against each loaded cube window before the next window loads,
// instead of running one full pass over the test set per point. One
// producer evaluator streams the cube source once per batch; each
// window is flattened exactly once and priced on the worker pool by the
// producer and mirror evaluators sharing it read-only, while the points
// carry their partial state forward. The per-pass evaluator cursor of
// tdcCost is replaced by per-point accumulators (codeword totals and
// the overlapped-shift time sum), and the band sweep's incumbent
// pruning runs at window boundaries: a point whose running lower bound
// (tdcPoint.lowerBound, the bound sweepBand prunes against cube by
// cube) is already strictly lex-worse than the best upper bound among
// its band's peers (or the band incumbent from earlier batches) drops
// out. Both pruning rules are exact, so fused
// tables are identical to the per-band sweep's over one whole-set
// window — the fused-equivalence and golden gates of `make check` —
// while `eval.window_loads` falls from O(points × windows) to
// O(batches × windows).
package core

import (
	"context"
	"fmt"

	"soctap/internal/selenc"
	"soctap/internal/telemetry"
)

// fusedBatchPoints bounds how many evaluation points share one
// streamed pass. Each in-flight point pins its kernel point table (one
// entry per input cell and scan chain), so the batch size trades pass
// count against peak memory; 64 keeps a giant-profile band sweep at a
// handful of passes while the resident tables stay far below one
// window of cube data. A variable so tests can force multi-batch
// schedules on small cores.
var fusedBatchPoints = 64

// fusedPoint is one (w, m) evaluation riding a fused pass: its pricing
// state (the design's kernel table and the running accumulators that
// replace the per-pass cursor), its band, and the resolved
// configuration once the pass completes.
type fusedPoint struct {
	tdcPoint
	band int // index into the band jobs
	// ubcw is an admissible per-pattern codeword upper bound: si slice
	// headers plus at most min(m, 2·GroupCount(m)) operation codewords
	// per slice. Paired with the per-pattern lower bound of si (one
	// header per slice), it brackets every unseen pattern's cost for
	// the mid-pass pruning rule.
	ubcw int64

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
func sweepBandsFused(ctx context.Context, evs []*Evaluator, unpruned bool, bands []bandJob, pc pruneCounters, tel *telemetry.Sink) error {
	producer := evs[0]
	c := producer.core
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
		// Batch setup: build the designs through the producer's packer
		// into its recycled design, apply sweepBand's pre-pass bounds
		// against the incumbents earlier batches established, and copy
		// what a point keeps into its own point table.
		batch = batch[:0]
		for _, r := range queue[start:end] {
			b := &bands[r.band]
			if b.best.Feasible && !unpruned {
				if bt, bv := coreBound(producer, r.m, b.w); boundWorse(bt, bv, b.best) {
					pc.drop()
					continue
				}
			}
			d, err := producer.Design(r.m)
			if err != nil {
				return err
			}
			if b.best.Feasible && !unpruned {
				if bt, bv := designBound(producer, d, b.w); boundWorse(bt, bv, b.best) {
					pc.drop()
					continue
				}
			}
			pt := newTDCPoint(d, nil)
			ub := min(int64(r.m), 2*int64(selenc.GroupCount(r.m)))
			batch = append(batch, &fusedPoint{tdcPoint: pt, band: r.band, ubcw: pt.si * (1 + ub)})
		}
		fc.points.Add(int64(len(batch)))
		fc.corePoints.Add(int64(len(batch)))
		if len(batch) == 0 {
			continue
		}
		if err := runFusedPass(ctx, evs, unpruned, bands, ubs, batch, pc, fc, tel); err != nil {
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
//
// Each window is priced by one forEachEval over the active points: the
// producer, which loaded the window, is worker 0, and mirrors sharing
// its window are the others. Every point is priced by exactly one worker
// per window and the pool returns before the next window loads, so a
// point's accumulators do not depend on the worker count.
func runFusedPass(ctx context.Context, evs []*Evaluator, unpruned bool, bands []bandJob, ubs []bandUB, pts []*fusedPoint, pc pruneCounters, fc fusedCounters, tel *telemetry.Sink) error {
	fc.passes.Inc()
	fc.corePasses.Inc()
	producer := evs[0]
	active := append([]*fusedPoint(nil), pts...)
	point := func(i int) string { return fmt.Sprintf("fused tdc w=%d m=%d", active[i].w, active[i].m) }
	var loads int64
	producer.beginPass()
	for len(active) > 0 && producer.nextWindow() {
		loads++
		err := forEachEval(ctx, evs, len(active), tel, point, func(ev *Evaluator, i int) error {
			ev.priceWindowPoint(active[i])
			return nil
		})
		if err != nil {
			return err
		}
		// The prune step is sequential and runs on exact, worker-order
		// independent accumulators, so the drop decisions — and with
		// them the prune counters and the window-load count — are
		// identical for every worker count.
		if !unpruned {
			active = pruneFusedWindow(producer.passPos, producer.patterns, bands, ubs, active, pc)
		}
	}
	fc.coreLoads.Add(loads)

	for _, p := range pts {
		if p.pruned {
			continue
		}
		producer.tdcEvals.Inc()
		p.cfg = p.config(producer.patterns)
	}
	return nil
}

// priceWindowPoint costs the loaded window against one point's
// accumulators — tdcCost's per-window step (priceWindow) with the
// cursor state carried by the point instead of the pass. Steady state
// is allocation-free (gate-enforced).
func (e *Evaluator) priceWindowPoint(p *fusedPoint) {
	e.priceWindow(&p.tdcPoint, true, Config{}, nil)
}

// pruneFusedWindow is the deterministic mid-pass prune step: with pos
// of patterns cubes priced, a point's final (time, volume) is bracketed
// by closed-form bounds on the rem remaining cubes —
//
//	LB: tdcPoint.lowerBound, the bound sweepBand prunes against: every
//	    pattern emits at least its si slice headers, and each remaining
//	    one adds at least max(si, so) cycles;
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
	rem := patterns - pos
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
		ut := p.timeAcc + int64(rem)*max(p.ubcw, p.so) + int64(patterns) + p.so
		uv := (p.totalCW + int64(rem)*p.ubcw) * p.w
		if !ub.ok || ut < ub.t || (ut == ub.t && uv < ub.v) {
			ub.t, ub.v, ub.ok = ut, uv, true
		}
	}
	out := active[:0]
	for _, p := range active {
		ub := ubs[p.band]
		lt, lv := p.lowerBound(rem, patterns)
		if ub.ok && (lt > ub.t || (lt == ub.t && lv > ub.v)) {
			p.pruned = true
			pc.drop()
			continue
		}
		out = append(out, p)
	}
	return out
}
