// Package core implements the paper's primary contribution: co-optimized
// test-architecture design and test scheduling with core-level expansion
// of compressed test patterns.
//
// It has three layers:
//
//   - per-core evaluation (this file): the exact test time and ATE data
//     volume of one core for a given wrapper-chain count m, with or
//     without the selective-encoding decompressor;
//   - lookup tables (lookup.go): the τ(w, m) exploration of Section 2 of
//     the paper, reduced to best-configuration tables indexed by TAM
//     width, fanned out over a bounded worker pool;
//   - the SOC-level optimizer (optimize.go): TAM partitioning, core
//     assignment and scheduling over those tables (Section 3).
package core

import (
	"context"
	"runtime"
	"time"

	"soctap/internal/cube"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
	"soctap/internal/wrapper"
)

// Config is the outcome of testing one core through one access
// configuration.
type Config struct {
	Feasible bool
	UseTDC   bool
	Codec    string // CodecDirect, CodecSelEnc or CodecDict
	Width    int    // TAM wires consumed (w for TDC, m for no-TDC)
	M        int    // wrapper chains driven
	// DictWords is the dictionary capacity (CodecDict only).
	DictWords int
	Time      int64 // test application time in cycles
	Volume    int64 // ATE stimulus storage in bits
}

// better reports whether c strictly improves on o (time first, then
// volume).
func (c Config) better(o Config) bool {
	if !c.Feasible {
		return false
	}
	if !o.Feasible {
		return true
	}
	if c.Time != o.Time {
		return c.Time < o.Time
	}
	return c.Volume < o.Volume
}

// streamWindow is the window, in cubes, of an evaluator whose core
// streams (soc.Core.StreamsCubes). Every evaluator prices its core's
// cubes from a cube.Source, one window at a time. A streamed core's
// passes reload recycled buffers window by window — O(window) peak
// memory instead of O(test set) — while a resident core's cached set is
// one whole-set window, loaded once and kept, so later passes reload
// nothing. The window moves memory and the table build's sweep
// schedule, never results (DeepEqual- and golden-gated in the tests).
const streamWindow = 64

// evalWindow is the per-window state shared by every consumer of one
// loaded cube window: the flattened care refs (cube.Window), re-encoded
// to segment refs at load (segmentRefs), and the window's position in
// the pass. One producer evaluator loads it; mirror evaluators (see
// mirror) price the same window read-only through their own kernel
// scratch — the data-sharing contract of the fused sweep (fused.go).
type evalWindow struct {
	cube.Window
	start int // global index of the window's first cube
	count int // cubes in the loaded window
}

// Evaluator evaluates test configurations of one core. It is the hot
// kernel of the (w, m) exploration: the core's test cubes are read from
// a cube.Source and flattened into a contiguous care-bit array one
// window at a time (one kept whole-set window for a resident core), the
// most recent wrapper design (and its point table) is kept so
// consecutive evaluations at the same m share it, and the counting
// kernel's scratch (kernel.go) is reused across the whole sweep. An
// Evaluator is not safe for concurrent use; a parallel sweep prices on
// one producer, which loads the cubes, and on mirrors sharing its
// loaded window (see mirror and forEachEval).
type Evaluator struct {
	core *soc.Core
	src  cube.Source // the replayable cube stream (nil on a mirror)

	patterns int // total cubes per evaluation pass
	window   int // cubes per window, at most patterns
	// careBits is the whole set's care-bit count when it is known up
	// front (a cached set), so its one load sizes the refs exactly
	// instead of growing them cube by cube; 0 otherwise.
	careBits int
	// maxScan, stimBits and respBits are the core's longest scan chain
	// and its stimulus and response bits per pattern, the constants of
	// coreBound.
	maxScan, stimBits, respBits int

	// win is the loaded cube window the kernels price against: &ownWin
	// for a self-loading evaluator, the producer's window for a mirror.
	win    *evalWindow
	ownWin evalWindow
	// starts holds the segment boundaries (segmentStarts) each loaded
	// window's refs are re-encoded against.
	starts []uint64

	// passPos is the global index of the first cube of the next window
	// (see beginPass/nextWindow).
	passPos int

	kern kernelScratch // counting kernel state

	// packer builds every design the evaluator prices into design, one
	// recycled Design holding the wrapper for lastM chains (0 = none).
	// It is created on the first Design call.
	packer *wrapper.Packer
	design wrapper.Design
	lastM  int
	// pt is the pricing state of the most recently priced m (see
	// point), so its point table is built once per m.
	pt tdcPoint

	// Kernel-invocation counters; nil (a no-op) unless a telemetry sink
	// is attached. Counts are deterministic: one per evaluated config
	// (and, for the window counters, one per window a pass prices).
	tdcEvals    *telemetry.Counter
	noTDCEvals  *telemetry.Counter
	windowLoads *telemetry.Counter
	windowCubes *telemetry.Counter
	// windowHist distributes the wall-clock cost of the window loads of
	// multi-window passes (source replay). A kept whole-set window loads
	// once per producer, whatever the sweep, so it records nothing; the
	// clock is only read when a sink is attached.
	windowHist *telemetry.Histogram
	// peakHeap is the heap high-water gauge, sampled at window
	// boundaries every heapSampleStride loads (ReadMemStats is
	// stop-the-world, so per-window sampling would dominate at small
	// windows). Nil without a sink; gauge values are runtime
	// observations, excluded from the determinism guarantee.
	peakHeap *telemetry.Gauge
	loadTick int

	// ctx, when non-nil, is checked at every kernel entry so a cancelled
	// sweep aborts at (w, m)-point granularity. Only cancellable contexts
	// are stored (bindContext), keeping the common Background case a
	// single nil comparison on the hot path.
	ctx context.Context
}

// heapSampleStride is the window-load sampling interval of the peak-heap
// gauge.
const heapSampleStride = 64

// attachTelemetry resolves the evaluator's kernel counters from the
// sink; a nil sink leaves them nil, keeping the hot path free.
func (e *Evaluator) attachTelemetry(tel *telemetry.Sink) {
	e.tdcEvals = tel.Counter("eval.tdc_evals")
	e.noTDCEvals = tel.Counter("eval.notdc_evals")
	e.windowLoads = tel.Counter("eval.window_loads")
	e.windowCubes = tel.Counter("eval.window_cubes")
	e.windowHist = tel.Histogram("eval.window_load_seconds")
	e.peakHeap = tel.Gauge("eval.peak_heap_bytes")
}

// bindContext arms the evaluator's per-kernel cancellation checkpoint.
// Contexts that can never be cancelled (Background, TODO, nil) are not
// stored, so unbound evaluators pay nothing.
func (e *Evaluator) bindContext(ctx context.Context) {
	if ctx != nil && ctx.Done() != nil {
		e.ctx = ctx
	}
}

// checkpoint returns the bound context's error, if any — the
// cooperative cancellation point of the evaluation kernels.
func (e *Evaluator) checkpoint() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// NewEvaluator prepares an evaluator for the core under the residency
// rule, soc.Core.StreamsCubes: a resident core's test set is generated
// once (cached on the core) and priced as one whole-set window, so the
// benchmark-class workloads never replay a source; a streamed core's
// source streams in windows of streamWindow cubes.
func NewEvaluator(c *soc.Core) (*Evaluator, error) {
	return newEvaluator(c, 0)
}

// newEvaluator is NewEvaluator with the package tests' window seam
// (sweepForce): window > 0 streams the core's TestSource in windows of
// that many cubes, one whole-set window once it reaches the set's size,
// whatever the residency rule says. Every window prices identically —
// the window moves peak memory, never results.
func newEvaluator(c *soc.Core, window int) (*Evaluator, error) {
	var src cube.Source
	careBits := 0
	if window == 0 && !c.StreamsCubes() {
		ts, err := c.TestSet()
		if err != nil {
			return nil, err
		}
		src, window, careBits = cube.NewSetSource(ts), len(ts.Cubes), ts.TotalCareBits()
	} else {
		var err error
		if src, err = c.TestSource(); err != nil {
			return nil, err
		}
		if window == 0 {
			window = streamWindow
		}
	}
	window = max(min(window, src.Len()), 1)
	maxScan := 0
	for _, l := range c.ScanChains {
		maxScan = max(maxScan, l)
	}
	e := &Evaluator{
		core:     c,
		src:      src,
		patterns: src.Len(),
		window:   window,
		careBits: careBits,
		maxScan:  maxScan,
		stimBits: c.StimulusBits(),
		respBits: c.ResponseBits(),
	}
	e.win = &e.ownWin
	e.ownWin.Off = make([]int, 0, window+1)
	e.starts = segmentStarts(c)
	return e, nil
}

// windows returns the number of cube windows per evaluation pass.
func (e *Evaluator) windows() int {
	return (e.patterns + e.window - 1) / e.window
}

// mirror returns a co-evaluator sharing this evaluator's loaded window:
// same core geometry, kernel layout, telemetry and context, its own
// kernel scratch and wrapper designs, no source of its own. Every
// worker of a build's fan-outs but the first prices on a mirror of the
// build's one producer (forEachEval), so the cube stream is loaded once
// per pass no matter how many points (or workers) consume it. A mirror
// must only price between the producer's window loads.
func (e *Evaluator) mirror() *Evaluator {
	return &Evaluator{
		core:        e.core,
		patterns:    e.patterns,
		window:      e.window,
		maxScan:     e.maxScan,
		stimBits:    e.stimBits,
		respBits:    e.respBits,
		win:         e.win,
		tdcEvals:    e.tdcEvals,
		noTDCEvals:  e.noTDCEvals,
		windowLoads: e.windowLoads,
		windowCubes: e.windowCubes,
		windowHist:  e.windowHist,
		peakHeap:    e.peakHeap,
		ctx:         e.ctx,
	}
}

// kept reports whether the loaded window holds the whole set: once a
// single-window evaluator has loaded it, every later pass prices the
// same window without touching the source again.
func (e *Evaluator) kept() bool {
	return e.win.count == e.patterns
}

// keep loads a single-window evaluator's whole set ahead of its first
// pass, so that mirrors pricing concurrently find it loaded. It counts
// no window: a pass counts the windows it prices.
func (e *Evaluator) keep() {
	if e.windows() == 1 && !e.kept() {
		e.beginPass()
		e.load()
	}
}

// beginPass rewinds the evaluator to the first cube of an evaluation
// pass; nextWindow then yields the pass's windows in order, replaying
// the source into the recycled care array unless the whole set is
// already loaded.
func (e *Evaluator) beginPass() {
	e.passPos = 0
	if !e.kept() {
		e.src.Reset()
	}
}

// nextWindow advances to the next cube window of the current pass,
// returning false when the pass is exhausted. After a true return,
// cubes [win.start, win.start+win.count) are loaded, their refs
// re-encoded to segment refs, and patternOps prices them by
// window-local index. Every window a pass prices counts in the window
// telemetry, a kept one included, so the counts follow the sweep and
// not the worker pool.
func (e *Evaluator) nextWindow() bool {
	if e.passPos >= e.patterns {
		return false
	}
	if !e.kept() && !e.load() {
		// A source shorter than its Len violates the Source contract;
		// treat it as end-of-pass rather than spinning.
		e.passPos = e.patterns
		return false
	}
	e.passPos += e.win.count
	e.noteWindow(e.win.count)
	return true
}

// load replays the window starting at passPos from the source into the
// recycled care array and re-encodes its refs, reporting whether the
// source yielded any cube. Only the loads of multi-window passes are
// timed (see windowHist).
func (e *Evaluator) load() bool {
	timed := e.windowHist != nil && e.window < e.patterns
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if cap(e.win.Refs) < e.careBits {
		e.win.Refs = make([]uint64, 0, e.careBits)
	}
	e.win.start = e.passPos
	e.win.count = e.win.Load(e.src, min(e.window, e.patterns-e.passPos))
	if e.win.count == 0 {
		return false
	}
	segmentRefs(e.win.Refs, e.starts)
	if timed {
		e.windowHist.Observe(time.Since(t0))
	}
	return true
}

// noteWindow accounts one priced window of n cubes and samples the heap
// high-water gauge every heapSampleStride loads. All of it is nil-safe
// and free without a telemetry sink.
func (e *Evaluator) noteWindow(n int) {
	e.windowLoads.Inc()
	e.windowCubes.Add(int64(n))
	if e.peakHeap == nil {
		return
	}
	e.loadTick++
	if e.loadTick%heapSampleStride != 1 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.peakHeap.Observe(int64(ms.HeapAlloc))
}

// Design returns the wrapper design for m chains, reusing the previous
// one when m is unchanged — this is what lets TDC, PatternBits and
// NoTDC calls at the same m share one design and point table. The
// design is built through the core's packer into one recycled Design,
// so it is valid until a call with another m, and a new m on a warm
// evaluator allocates nothing.
func (e *Evaluator) Design(m int) (*wrapper.Design, error) {
	if e.lastM == m && m != 0 {
		return &e.design, nil
	}
	if e.packer == nil {
		e.packer = wrapper.NewPacker(e.core)
	}
	e.lastM = 0 // until the rebuild completes
	if err := e.packer.Build(&e.design, m); err != nil {
		return nil, err
	}
	e.lastM = m
	return &e.design, nil
}

// NoTDC evaluates testing the core through m direct TAM wires (one
// wrapper chain per wire, no compression): the classic
// τ = (1 + max(si,so))·p + min(si,so) regime.
func (e *Evaluator) NoTDC(m int) (Config, error) {
	if err := e.checkpoint(); err != nil {
		return Config{}, err
	}
	d, err := e.Design(m)
	if err != nil {
		return Config{}, err
	}
	e.noTDCEvals.Inc()
	return Config{
		Feasible: true,
		Width:    m,
		M:        m,
		Time:     d.TestTime(),
		Volume:   d.StimulusVolume(),
	}, nil
}

// TDC evaluates testing the core through a selective-encoding
// decompressor with m outputs (wrapper chains) and w = CodewordWidth(m)
// TAM inputs. The test time charges one cycle per codeword, overlaps
// each pattern's response shift-out with the next pattern's compressed
// shift-in, and adds one capture cycle per pattern plus the final
// shift-out:
//
//	τ = cw_1 + Σ_{j>1} max(cw_j, so) + p + so
//
// The ATE volume is the exact compressed stream size, codewords × w.
// groupCopy disables the codec's group-copy mode when false (the
// ablation knob for the two-mode design choice).
func (e *Evaluator) TDC(m int, groupCopy bool) (Config, error) {
	cfg, _, err := e.tdc(m, groupCopy, Config{})
	return cfg, err
}

// tdc is TDC with a bound: a feasible bound lets the pass be abandoned
// once the configuration provably loses to it (see priceWindow), and ok
// reports whether the evaluation completed. Only completed evaluations
// count in eval.tdc_evals.
func (e *Evaluator) tdc(m int, groupCopy bool, bound Config) (cfg Config, ok bool, err error) {
	if err := e.checkpoint(); err != nil {
		return Config{}, false, err
	}
	d, err := e.Design(m)
	if err != nil {
		return Config{}, false, err
	}
	pt := e.point(d)
	if !e.tdcCost(pt, groupCopy, bound, nil) {
		return Config{}, false, nil
	}
	e.tdcEvals.Inc()
	return pt.config(e.patterns), true, nil
}

// PatternBits returns the exact compressed size in bits of every test
// pattern of the core under selective encoding with m wrapper chains —
// the per-pattern cost model used by ATE-memory truncation planning.
func (e *Evaluator) PatternBits(m int) ([]int64, error) {
	d, err := e.Design(m)
	if err != nil {
		return nil, err
	}
	pt := e.point(d)
	out := make([]int64, e.patterns)
	e.tdcCost(pt, true, Config{}, out)
	for j := range out {
		out[j] *= pt.w
	}
	return out, nil
}

// point returns the evaluator's pricing state for d, the evaluator's
// design, building the point table (into recycled storage) only when
// d's m differs from the last m priced. The table is keyed by m, not
// by the recycled design's address: a design is a function of the core
// and m, so a rebuilt design at the table's m has the same table.
func (e *Evaluator) point(d *wrapper.Design) *tdcPoint {
	if e.pt.m != d.M {
		e.pt = newTDCPoint(d, e.pt.segs)
	}
	return &e.pt
}

// tdcCost runs one pass over the core's cubes, pricing each into pt's
// accumulators without materializing codewords. It reproduces selenc's
// cost model — per slice, one header plus min(t, 2) codewords per group
// holding t target bits (fill = per-slice care majority) — through the
// counting kernel (kernel.go), and is validated against the real
// encoder in the tests. It returns false when a feasible bound
// abandoned the pass (see priceWindow); perCW, when non-nil, receives
// every pattern's codeword count. On true, pt.config yields the
// configuration.
func (e *Evaluator) tdcCost(pt *tdcPoint, groupCopy bool, bound Config, perCW []int64) bool {
	pt.totalCW, pt.timeAcc = 0, 0
	e.beginPass()
	for e.nextWindow() {
		if !e.priceWindow(pt, groupCopy, bound, perCW) {
			return false
		}
	}
	return true
}

// EvalNoTDC evaluates testing the core through m direct TAM wires with
// a one-shot evaluator. Sweeps should reuse an Evaluator instead.
func EvalNoTDC(c *soc.Core, m int) (Config, error) {
	// Direct access needs no test set, so keep the historical behavior
	// of not generating one.
	d, err := wrapper.New(c, m)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Feasible: true,
		Width:    m,
		M:        m,
		Time:     d.TestTime(),
		Volume:   d.StimulusVolume(),
	}, nil
}

// EvalTDC evaluates one compressed configuration with a one-shot
// evaluator. Sweeps should reuse an Evaluator instead.
func EvalTDC(c *soc.Core, m int) (Config, error) {
	e, err := NewEvaluator(c)
	if err != nil {
		return Config{}, err
	}
	return e.TDC(m, true)
}

// EvalTDCNoGroupCopy is EvalTDC with group-copy mode disabled: every
// target bit costs one single-bit codeword. This is the ablation knob
// for the two-mode codec design choice.
func EvalTDCNoGroupCopy(c *soc.Core, m int) (Config, error) {
	e, err := NewEvaluator(c)
	if err != nil {
		return Config{}, err
	}
	return e.TDC(m, false)
}

// PatternBits returns the exact compressed size in bits of every test
// pattern of the core under selective encoding with m wrapper chains,
// with a one-shot evaluator.
func PatternBits(c *soc.Core, m int) ([]int64, error) {
	e, err := NewEvaluator(c)
	if err != nil {
		return nil, err
	}
	return e.PatternBits(m)
}
