// Package experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md's experiment index). Each experiment
// returns a structured result and can render itself in the paper's
// layout; cmd/repro and the repository's benchmark harness are thin
// wrappers around these functions.
//
// Absolute cycle counts differ from the paper (the industrial cores are
// documented synthetic stand-ins), but each experiment's *shape* — who
// wins, by what factor, where the non-monotonicities fall — is the
// reproduction target, recorded in EXPERIMENTS.md.
package experiments

import (
	"context"

	"soctap/internal/core"
	"soctap/internal/telemetry"
)

// sharedCache is used by default so that consecutive experiments (and
// benchmark iterations) reuse per-core lookup tables.
var sharedCache = new(core.Cache)

// SharedCache exposes the process-wide table cache.
func SharedCache() *core.Cache { return sharedCache }

// SetTableCache makes c (non-nil) the table cache of subsequent
// experiment runs, replacing the default in-memory one. cmd/repro
// wires its -table-cache, -table-cache-mem and -table-cache-size flags
// here through core.NewCache.
func SetTableCache(c *core.Cache) { sharedCache = c }

// engineWorkers bounds the evaluation-engine parallelism used by every
// experiment; 0 means one worker per available CPU (the engine
// default). Results are bit-identical for every setting.
var engineWorkers int

// SetWorkers bounds the evaluation-engine parallelism of subsequent
// experiment runs (0 = one worker per CPU, 1 = fully sequential). Call
// it before launching experiments; cmd/repro wires its -workers flag
// here.
func SetWorkers(n int) { engineWorkers = n }

// engineEvalWindow selects the evaluator cube window of every
// experiment's table builds (see core.TableOptions.EvalWindow); 0 (the
// default) picks automatically by core size. Results are bit-identical
// for every setting.
var engineEvalWindow int

// SetEvalWindow selects the evaluator streaming window of subsequent
// experiment runs (0 = automatic by core size, > 0 = stream in windows
// of that many cubes, -1 = whole set as one window). Call it before
// launching experiments; cmd/repro wires its -eval-window flag here.
func SetEvalWindow(window int) { engineEvalWindow = window }

// engineTables stamps the process-wide engine knobs onto an
// experiment's TableOptions literal, so every table build in the
// package honours SetEvalWindow without threading it through each
// call site.
func engineTables(o core.TableOptions) core.TableOptions {
	o.EvalWindow = engineEvalWindow
	return o
}

// telSink receives phase spans and counters from every subsequent
// experiment run; nil (the default) disables instrumentation at zero
// cost. cmd/repro wires its -telemetry/-telemetry-text flags here.
var telSink *telemetry.Sink

// telSpan is the span of the experiment currently running; core.Optimize
// calls nest their phase trees (tables/search/schedule) under it.
// Experiments run sequentially, so a single current-span is enough.
var telSpan *telemetry.Span

// SetTelemetry routes phase spans and subsystem counters of subsequent
// experiment runs into sink (nil turns instrumentation back off).
func SetTelemetry(sink *telemetry.Sink) { telSink = sink }

// runCtx governs every subsequent experiment run; nil (the default)
// behaves like context.Background().
var runCtx context.Context

// SetContext makes ctx govern every subsequent experiment run:
// cancelling it aborts in-flight Optimize/BuildTable/Sweep calls with
// ctx.Err(). cmd/repro wires its SIGINT/SIGTERM context here. Call it
// before launching experiments; nil restores context.Background().
func SetContext(ctx context.Context) { runCtx = ctx }

// expContext resolves the context experiment runs use.
func expContext() context.Context {
	if runCtx == nil {
		return context.Background()
	}
	return runCtx
}

// expSpan opens the top-level span for one experiment run and makes it
// the parent of every Optimize call until the returned timing is Ended:
//
//	defer expSpan("tab3").End()
func expSpan(name string) telemetry.Timing {
	telSink.PublishRun("experiment:"+name, "start") // live run marker on the event bus
	telSpan = telSink.Span(name)                    // nil sink → nil span → all no-ops
	return telSpan.Begin()
}

// tableWidth is the lookup-table width used across experiments: wide
// enough for every W_TAM the paper sweeps.
const tableWidth = 64
