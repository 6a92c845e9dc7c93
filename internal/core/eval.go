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
	"fmt"
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

// Window constants of the evaluator. Every evaluator prices its core's
// cubes from a cube.Source, one window at a time. A pass over several
// windows reloads recycled buffers window by window — O(window) peak
// memory instead of O(test set) — while a single whole-set window is
// loaded on the first pass and kept, so later passes reload nothing.
// The window moves memory and the table build's sweep schedule, never
// results (DeepEqual- and golden-gated in the tests).
const (
	// DefaultEvalWindow is the window size (in cubes) used when a core is
	// streamed without an explicit choice.
	DefaultEvalWindow = 64
	// EvalWindowAll streams the whole set as one window — the ∞ point of
	// the window axis.
	EvalWindowAll = -1
)

// checkEvalWindow rejects window settings NewEvaluatorWindow cannot
// honour: anything negative other than EvalWindowAll.
func checkEvalWindow(window int) error {
	if window < 0 && window != EvalWindowAll {
		return fmt.Errorf("core: EvalWindow %d (want > 0, 0 for auto, or EvalWindowAll)", window)
	}
	return nil
}

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
// window at a time (one kept whole-set window for benchmark-size
// cores), the most recent wrapper design (and its point table) is
// kept so consecutive evaluations at the same m share it, and the
// counting kernel's scratch (kernel.go) is reused across the whole
// sweep. An Evaluator is not safe for concurrent use; parallel sweeps
// give each worker its own (see lookup.go) or a mirror sharing a
// producer's loaded window (see fused.go).
type Evaluator struct {
	core *soc.Core
	src  cube.Source // the replayable cube stream (nil on a mirror)

	patterns int // total cubes per evaluation pass
	window   int // cubes per window, at most patterns
	// careBits is the whole set's care-bit count when it is known up
	// front (a cached set), so its one load sizes the refs exactly
	// instead of growing them cube by cube; 0 otherwise.
	careBits int

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

	lastM int // most recently built wrapper design (0 = none)
	lastD *wrapper.Design
	// pt is the pricing state of ptD, the most recently priced design
	// (see point), so its point table is built once per design.
	pt  tdcPoint
	ptD *wrapper.Design

	// Kernel-invocation counters; nil (a no-op) unless a telemetry sink
	// is attached. Counts are deterministic: one per evaluated config
	// (and, for the window counters, one per window load).
	tdcEvals    *telemetry.Counter
	noTDCEvals  *telemetry.Counter
	windowLoads *telemetry.Counter
	windowCubes *telemetry.Counter
	// windowHist distributes the wall-clock cost of the window loads of
	// multi-window passes (source replay). A kept whole-set window loads
	// once per evaluator — a count that follows the worker pool, not the
	// sweep — so it records nothing; the clock is only read when a sink
	// is attached.
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

// NewEvaluator prepares an evaluator for the core in automatic window
// mode (see NewEvaluatorWindow).
func NewEvaluator(c *soc.Core) (*Evaluator, error) {
	return NewEvaluatorWindow(c, 0)
}

// NewEvaluatorWindow prepares an evaluator with an explicit window
// choice. window > 0 streams the core's TestSource in windows of that
// many cubes; EvalWindowAll streams it as one whole-set window; 0 picks
// by soc.Core.StreamsCubes: a resident core's test set is generated
// once (cached on the core) and priced as one whole-set window, so the
// benchmark-class workloads never replay a source; a streamed core's
// source streams with DefaultEvalWindow. Other negative values are
// rejected. Every choice prices identically — the window moves peak
// memory, never results.
func NewEvaluatorWindow(c *soc.Core, window int) (*Evaluator, error) {
	if err := checkEvalWindow(window); err != nil {
		return nil, err
	}
	var src cube.Source
	careBits := 0
	if window == 0 && !c.StreamsCubes() {
		ts, err := c.TestSet()
		if err != nil {
			return nil, err
		}
		src, window, careBits = cube.NewSetSource(ts), EvalWindowAll, ts.TotalCareBits()
	} else {
		var err error
		if src, err = c.TestSource(); err != nil {
			return nil, err
		}
		if window == 0 {
			window = DefaultEvalWindow
		}
	}
	if window == EvalWindowAll || window > src.Len() {
		window = max(src.Len(), 1)
	}
	e := &Evaluator{
		core:     c,
		src:      src,
		patterns: src.Len(),
		window:   window,
		careBits: careBits,
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
// same core geometry and kernel layout, its own kernel scratch, no
// source of its own. The fused sweep's workers price a producer's
// windows through mirrors, so the cube stream is traversed exactly once
// per pass no matter how many points (or workers) consume it. A mirror
// must only be used between the producer's window loads.
func (e *Evaluator) mirror() *Evaluator {
	return &Evaluator{
		core:     e.core,
		patterns: e.patterns,
		window:   e.window,
		win:      e.win,
	}
}

// kept reports whether the loaded window holds the whole set: once a
// single-window evaluator has loaded it, every later pass prices the
// same window without touching the source again.
func (e *Evaluator) kept() bool {
	return e.win.count == e.patterns
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
	if e.kept() {
		e.passPos = e.patterns
		e.noteWindow(e.patterns)
		return true
	}
	timed := e.windowHist != nil && e.window < e.patterns
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if cap(e.win.Refs) < e.careBits {
		e.win.Refs = make([]uint64, 0, e.careBits)
	}
	n := min(e.window, e.patterns-e.passPos)
	loaded := e.win.Load(e.src, n)
	e.win.start = e.passPos
	e.win.count = loaded
	e.passPos += loaded
	if loaded == 0 {
		// A source shorter than its Len violates the Source contract;
		// treat it as end-of-pass rather than spinning.
		e.passPos = e.patterns
		return false
	}
	segmentRefs(e.win.Refs, e.starts)
	if timed {
		e.windowHist.Observe(time.Since(t0))
	}
	e.noteWindow(loaded)
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
// NoTDC calls at the same m share one design and point table.
func (e *Evaluator) Design(m int) (*wrapper.Design, error) {
	if e.lastD != nil && e.lastM == m {
		return e.lastD, nil
	}
	d, err := wrapper.New(e.core, m)
	if err != nil {
		return nil, err
	}
	e.lastM, e.lastD = m, d
	return d, nil
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

// point returns the evaluator's pricing state for design d, building
// the point table (into recycled storage) only when d differs from the
// last design priced.
func (e *Evaluator) point(d *wrapper.Design) *tdcPoint {
	if e.ptD != d {
		e.pt, e.ptD = newTDCPoint(d, e.pt.segs), d
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
