// Package soctap is a test-architecture optimization and test-scheduling
// library for core-based systems-on-chip with core-level expansion of
// compressed test patterns. It reproduces the method of Larsson,
// Larsson, Chakrabarty, Eles and Peng, "Test-Architecture Optimization
// and Test Scheduling for SOCs with Core-Level Expansion of Compressed
// Test Patterns" (DATE 2008).
//
// The flow, end to end:
//
//	soc    := soctap.D695()                   // or build/parse your own
//	result, err := soctap.Optimize(soc, 32, soctap.Options{
//	        Style: soctap.StyleTDCPerCore,    // the paper's proposed scheme
//	})
//	// result.TestTime, result.Volume, result.Partition, result.Schedule ...
//	err = soctap.VerifyPlan(result)           // bit-level functional check
//
// The package is a thin facade over the internal packages:
//
//   - internal/cube     — sparse test cubes, the synthetic ATPG model,
//     static compaction
//   - internal/soc      — core/SOC models, benchmark designs, file format
//   - internal/wrapper  — IEEE-1500-style wrapper-chain design
//   - internal/selenc   — selective encoding of scan slices: the
//     encoder, the cycle-accurate decompressor and its hardware cost
//   - internal/dictenc  — dictionary codec (technique selection)
//   - internal/tam      — TAM partitions
//   - internal/sched    — test scheduling (greedy, optimal,
//     power-constrained)
//   - internal/core     — per-core (w,m) exploration and the SOC-level
//     co-optimizer (the paper's contribution)
//   - internal/baselines — proxies for the prior work compared against
//   - internal/sim      — cycle-accurate end-to-end verification
//   - internal/ate      — tester memory/bandwidth model
//   - internal/power    — WTC scan-power estimation
//   - internal/truncate — ATE-memory truncation planning
//   - internal/atevec   — SOC-level ATE vector image composition
//   - internal/misr     — response compaction with X-masking
package soctap

import (
	"context"
	"io"
	"net/http"

	"soctap/internal/ate"
	"soctap/internal/atevec"
	"soctap/internal/baselines"
	"soctap/internal/core"
	"soctap/internal/cube"
	"soctap/internal/power"
	"soctap/internal/sched"
	"soctap/internal/sim"
	"soctap/internal/soc"
	"soctap/internal/tam"
	"soctap/internal/telemetry"
	"soctap/internal/truncate"
)

// Core is one wrapped embedded core: terminals, scan structure, and test
// set shape.
type Core = soc.Core

// SOC is a core-based system-on-chip.
type SOC = soc.SOC

// Partition is the widths of the TAM buses.
type Partition = tam.Partition

// Schedule is a complete SOC test schedule.
type Schedule = sched.Schedule

// Config is one core-level test configuration (direct or compressed).
type Config = core.Config

// Table is a per-core lookup table of best configurations by TAM width.
// It holds its options and its two rows, NoTDC (direct access at each
// width) and TDCExact (the best decompressor of exactly each input
// width), and no reference to the core it was built for, so a table a
// Cache keeps retains none of that core's test cubes. Table.Choose
// derives from the two rows the configuration a style uses at a width:
// under StyleTDCPerCore, the better of direct access and the best
// decompressor of at most that width.
type Table = core.Table

// TableOptions controls per-core lookup-table construction; in Options
// its Workers also bounds how many per-core tables build at once.
type TableOptions = core.TableOptions

// Options controls SOC-level optimization.
type Options = core.Options

// Result is a complete SOC test plan.
type Result = core.Result

// CoreChoice reports the configuration chosen for one core.
type CoreChoice = core.CoreChoice

// Plan is the serializable form of a Result (Result.Plan / WritePlan)
// — the JSON the tooling and the socserve daemon hand to clients.
type Plan = core.PlanJSON

// Cache memoizes per-core lookup tables across optimizer runs. Its
// memory budget charges each resident table for its rows, which are all
// the table keeps.
type Cache = core.Cache

// Style selects the test-access architecture style (Figure 4 of the
// paper).
type Style = core.Style

// Architecture styles.
const (
	// StyleNoTDC tests cores directly over TAM wires (Fig. 4a).
	StyleNoTDC = core.StyleNoTDC
	// StyleTDCPerTAM places one decompressor at the head of each TAM
	// (Fig. 4b).
	StyleTDCPerTAM = core.StyleTDCPerTAM
	// StyleTDCPerCore places a decompressor at every core — the paper's
	// proposed scheme (Fig. 4c).
	StyleTDCPerCore = core.StyleTDCPerCore
)

// TechSelection is a per-core compression-technique selection table
// (direct vs selective encoding vs dictionary), the ATS'08 follow-up
// extension.
type TechSelection = core.TechSelection

// Codec identifiers recorded in Config.Codec.
const (
	CodecDirect = core.CodecDirect
	CodecSelEnc = core.CodecSelEnc
	CodecDict   = core.CodecDict
)

// Tester is an ATE configuration (channels, memory depth, frequency).
type Tester = ate.Tester

// TelemetrySink is the root of one instrumentation domain: race-safe
// subsystem counters plus a hierarchical phase-span tree. A nil sink
// disables everything it hands out at zero cost, so instrumentation can
// stay wired in permanently. Attach one to a run via
// Options.Telemetry = sink.Root().
type TelemetrySink = telemetry.Sink

// TelemetrySpan is one node of a sink's phase tree.
type TelemetrySpan = telemetry.Span

// TelemetrySnapshot is a point-in-time copy of a sink — counters,
// gauges, latency histograms and the span tree — renderable as
// deterministic JSON (WriteJSON) or human text (Render).
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryHistogram is a log2-bucketed latency distribution with
// p50/p90/p99 quantiles in the snapshot. A nil histogram records
// nothing at zero cost; a live one is lock-free and allocation-free.
// Observation counts are worker-count deterministic like counters;
// the observed values are wall clock.
type TelemetryHistogram = telemetry.Histogram

// TelemetryEvent is one typed event on a sink's live bus: a span
// ending, a counter delta, a gauge high-water raise, or a run
// lifecycle mark. Marshals as one-line JSON for NDJSON streams.
type TelemetryEvent = telemetry.Event

// TelemetrySubscription is a live tap on a sink's event bus. The bus
// never blocks publishers: events beyond the subscription's buffer are
// dropped and counted (Dropped).
type TelemetrySubscription = telemetry.Subscription

// TelemetryServer is a running observability HTTP server (see
// StartTelemetryServer).
type TelemetryServer = telemetry.Server

// NewTelemetry creates an enabled telemetry sink:
//
//	sink := soctap.NewTelemetry()
//	res, err := soctap.Optimize(s, 32, soctap.Options{Telemetry: sink.Root()})
//	sink.Snapshot().WriteJSON(os.Stdout)
func NewTelemetry() *TelemetrySink { return telemetry.New() }

// NewTelemetryHandler returns the observability endpoint for the sink —
// /metrics (OpenMetrics text), /healthz, /events (live NDJSON, filter
// with ?kinds=span,counter,gauge,run) and /debug/pprof — for mounting
// into an existing HTTP mux.
func NewTelemetryHandler(s *TelemetrySink) http.Handler { return telemetry.NewHandler(s) }

// StartTelemetryServer serves NewTelemetryHandler on addr (":0" picks
// a free port; Addr reports it) in the background. Shutdown ends open
// /events streams and stops the listener; a nil server shuts down as a
// no-op. This is what the -metrics-addr flag of socopt and repro does.
func StartTelemetryServer(addr string, s *TelemetrySink) (*TelemetryServer, error) {
	return telemetry.StartServer(addr, s)
}

// BaselineResult is a prior-work proxy evaluation.
type BaselineResult = baselines.Result

// Optimize designs a test architecture and schedule for the SOC under a
// total TAM width budget using the paper's co-optimization heuristic.
func Optimize(s *SOC, wtam int, opts Options) (*Result, error) {
	return core.Optimize(s, wtam, opts)
}

// OptimizeContext is Optimize governed by ctx: a cancelled run returns
// ctx.Err() promptly (cancellation is observed at every table
// evaluation point, every pattern of a technique-selection sweep and
// every candidate schedule) with no goroutines
// leaked, and an uncancelled run is bit-identical to Optimize. A nil
// ctx behaves like context.Background().
func OptimizeContext(ctx context.Context, s *SOC, wtam int, opts Options) (*Result, error) {
	return core.OptimizeContext(ctx, s, wtam, opts)
}

// BuildTable constructs the per-core lookup table of Section 2 of the
// paper: best configurations at every TAM width, with and without the
// decompressor.
func BuildTable(c *Core, opts TableOptions) (*Table, error) {
	return core.BuildTable(c, opts)
}

// BuildTableContext is BuildTable governed by ctx (see OptimizeContext
// for the cancellation contract).
func BuildTableContext(ctx context.Context, c *Core, opts TableOptions) (*Table, error) {
	return core.BuildTableContext(ctx, c, opts)
}

// SweepTDC evaluates every wrapper-chain count m in [lo, hi] with the
// decompressor enabled — the analysis behind Figures 2 and 3. The sweep
// runs on the table build's schedule, every m priced against one loaded
// test set on one worker per CPU; results are identical to a
// sequential sweep.
func SweepTDC(c *Core, lo, hi int) ([]Config, error) {
	return core.SweepTDC(c, lo, hi)
}

// SweepTDCWorkers is SweepTDC with an explicit worker bound (zero means
// one worker per CPU, 1 is fully sequential).
func SweepTDCWorkers(c *Core, lo, hi, workers int) ([]Config, error) {
	return core.SweepTDCWorkers(c, lo, hi, workers)
}

// SweepTDCContext is SweepTDCWorkers governed by ctx (see
// OptimizeContext for the cancellation contract).
func SweepTDCContext(ctx context.Context, c *Core, lo, hi, workers int) ([]Config, error) {
	return core.SweepTDCContext(ctx, c, lo, hi, workers)
}

// EvalTDC evaluates one compressed configuration (m wrapper chains,
// ceil(log2(m+1))+2 TAM wires).
func EvalTDC(c *Core, m int) (Config, error) { return core.EvalTDC(c, m) }

// EvalNoTDC evaluates one direct configuration (m TAM wires driving m
// wrapper chains).
func EvalNoTDC(c *Core, m int) (Config, error) { return core.EvalNoTDC(c, m) }

// EvalDict evaluates one dictionary-compressed configuration (m wrapper
// chains, dictWords dictionary entries).
func EvalDict(c *Core, m, dictWords int) (Config, error) { return core.EvalDict(c, m, dictWords) }

// SelectTechniques builds the per-core technique-selection table over
// direct access, selective encoding and dictionary coding.
func SelectTechniques(c *Core, opts TableOptions, dictSizes []int) (*TechSelection, error) {
	return core.SelectTechniques(c, opts, dictSizes)
}

// WritePlan serializes a result as indented JSON for downstream tooling.
func WritePlan(w io.Writer, r *Result) error { return r.WritePlan(w) }

// VerifyPlan confirms an optimization result by cycle-accurate
// simulation: schedule consistency, a TAM partition within W_TAM,
// exact compressed volumes, and bit-exact stimulus delivery. The cores
// replay on up to GOMAXPROCS goroutines, the caller's among them; the
// error is the one the first failing core in plan order gives, and a
// panicking replay comes back as an error naming its core.
func VerifyPlan(r *Result) error { return sim.VerifyPlan(r) }

// ParseSOC reads a design description in the library's ITC'02-inspired
// text format.
func ParseSOC(r io.Reader) (*SOC, error) { return soc.Parse(r) }

// WriteSOC writes a design description in the format read by ParseSOC.
func WriteSOC(w io.Writer, s *SOC) error { return soc.Write(w, s) }

// VectorImage is the composed SOC-level ATE vector image of a plan.
type VectorImage = atevec.Image

// VectorStats summarizes a vector image's ATE footprint.
type VectorStats = atevec.Stats

// BuildVectorImage re-encodes every core's stimuli under its chosen
// configuration and lays the streams out on the scheduled buses — the
// artifact an ATE program generator consumes.
func BuildVectorImage(r *Result) (*VectorImage, error) { return atevec.Build(r) }

// PowerEstimate is a weighted-transition-count scan-power estimate.
type PowerEstimate = power.Estimate

// FillStrategy selects how don't-care bits are resolved for power
// estimation.
type FillStrategy = power.FillStrategy

// Fill strategies for ScanInPower.
const (
	FillZero      = power.FillZero
	FillSlice     = power.FillSlice
	FillAlternate = power.FillAlternate
)

// ScanInPower estimates scan-in switching activity (WTC) for a core
// through m wrapper chains under a fill strategy; feeds power-aware
// scheduling.
func ScanInPower(c *Core, m int, fill FillStrategy) (*PowerEstimate, error) {
	return power.ScanInPower(c, m, fill)
}

// Truncation is an ATE-memory truncation plan: per-core kept pattern
// counts maximizing estimated test quality within a memory budget.
type Truncation = truncate.Result

// PatternCost reports the ATE storage (bits) of pattern j of core c;
// nil means uncompressed storage.
type PatternCost = truncate.PatternCost

// TruncateForATE plans test-data truncation under an ATE memory budget
// (total bits), keeping each core's highest-value leading patterns.
func TruncateForATE(s *SOC, budgetBits int64, cost PatternCost) (*Truncation, error) {
	return truncate.Plan(s, budgetBits, cost)
}

// PatternBits returns the exact compressed size in bits of every test
// pattern of the core under selective encoding with m wrapper chains —
// a PatternCost building block for compressed truncation planning.
func PatternBits(c *Core, m int) ([]int64, error) { return core.PatternBits(c, m) }

// CubeSet is a core's test set: partially specified test patterns.
type CubeSet = cube.Set

// CompactTestSet statically compacts a cube set by greedily merging
// compatible cubes, the standard ATPG post-processing step before test
// planning. Coverage is preserved: every original cube is contained in
// some merged cube.
func CompactTestSet(s *CubeSet) *CubeSet { return cube.Compact(s) }

// D695 returns the d695 ITC'02 benchmark SOC.
func D695() *SOC { return soc.D695() }

// D2758 returns the documented d2758 stand-in SOC.
func D2758() *SOC { return soc.D2758() }

// System returns one of the industrial-core SOCs System1..System4.
func System(name string) (*SOC, error) { return soc.System(name) }

// IndustrialCore returns one of the synthetic industrial cores
// ckt-1..ckt-12.
func IndustrialCore(name string) (*Core, error) { return soc.IndustrialCore(name) }

// Benchmark returns the named built-in SOC, building that design only;
// ok is false for a name AllBenchmarks does not list.
func Benchmark(name string) (s *SOC, ok bool) { return soc.Benchmark(name) }

// AllBenchmarks returns every built-in SOC keyed by name.
func AllBenchmarks() map[string]*SOC { return soc.AllBenchmarks() }

// VirtualTAM18 evaluates the [18] (virtual test access architecture)
// proxy at an ATE channel budget.
func VirtualTAM18(s *SOC, ateChannels int) (BaselineResult, error) {
	return baselines.VirtualTAM18(s, ateChannels)
}

// LFSRReseeding13 evaluates the [13] (LFSR reseeding) proxy at a TAM
// width budget.
func LFSRReseeding13(s *SOC, wtam int) (BaselineResult, error) {
	return baselines.LFSRReseeding13(s, wtam)
}

// FixedWidth11 evaluates the [11] (fixed w=4 per-core compression)
// proxy at a TAM width budget.
func FixedWidth11(s *SOC, wtam int) (BaselineResult, error) {
	return baselines.FixedWidth11(s, wtam)
}
