// Package experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md's experiment index). Each experiment
// is a method of Engine that returns a structured result, which can
// render itself in the paper's layout; cmd/repro and the repository's
// benchmark harness are thin wrappers around these methods.
//
// Absolute cycle counts differ from the paper (the industrial cores are
// documented synthetic stand-ins), but each experiment's *shape* — who
// wins, by what factor, where the non-monotonicities fall — is the
// reproduction target, recorded in EXPERIMENTS.md.
package experiments

import (
	"soctap/internal/core"
	"soctap/internal/telemetry"
)

// Engine holds what every experiment runs on. Its methods take the
// run's context first; cancelling it aborts in-flight Optimize,
// BuildTable and Sweep calls with ctx.Err(). Engines share no state, so
// two Engines with their own caches and sinks run experiments
// concurrently. Results are bit-identical for every Workers setting.
type Engine struct {
	// Cache memoizes per-core lookup tables across the experiments run
	// on this Engine. A nil Cache gives each experiment call a private
	// in-memory cache, dropped when the call returns.
	Cache *core.Cache
	// Workers bounds the evaluation-engine parallelism (0 = one worker
	// per CPU, 1 = fully sequential).
	Workers int
	// Telemetry receives each experiment's span, as a child of the sink
	// root, with its phase spans and counters; nil disables
	// instrumentation at zero cost.
	Telemetry *telemetry.Sink
}

// run is one experiment call on an Engine: the span it records under
// and the cache its tables go through.
type run struct {
	e      *Engine
	cache  *core.Cache
	span   *telemetry.Span
	timing telemetry.Timing
}

// start publishes the `experiment:<name>` start marker on the event bus
// and opens the experiment's span; callers defer end.
func (e *Engine) start(name string) *run {
	e.Telemetry.PublishRun("experiment:"+name, "start")
	r := &run{e: e, cache: e.Cache, span: e.Telemetry.Span(name)}
	if r.cache == nil {
		r.cache = new(core.Cache)
	}
	r.timing = r.span.Begin()
	return r
}

func (r *run) end() { r.timing.End() }

// options sets the engine's cache and workers and the experiment's span
// on o, so each call site names only what differs.
func (r *run) options(o core.Options) core.Options {
	o.Cache, o.Tables.Workers, o.Telemetry = r.cache, r.e.Workers, r.span
	return o
}

// tableWidth is the lookup-table width used across experiments: wide
// enough for every W_TAM the paper sweeps.
const tableWidth = 64
