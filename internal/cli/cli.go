// Package cli is the command-line surface socopt and repro share: one
// registration of their engine, table-cache and telemetry flags, and
// one run lifecycle behind them — the signal context, the profiles, the
// telemetry sink and live metrics server, and the run report written on
// success and on interrupt. socserve registers the table-cache flags
// alone.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"soctap/internal/core"
	"soctap/internal/telemetry"
	"soctap/internal/units"
)

// Flags holds the values of the shared engine, cache and telemetry
// flags; the flag set's Parse fills them in.
type Flags struct {
	Workers int

	cache                         CacheFlags
	telemetryOut                  string
	telemetryText                 bool
	metricsAddr                   string
	cpuProfile, memProfile, trace string
}

// CacheFlags holds the values of the three table-cache flags.
type CacheFlags struct {
	dir, mem, size string
}

// Register registers the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.IntVar(&f.Workers, "workers", 0, "evaluation-engine worker goroutines (0 = one per CPU, 1 = sequential; results are identical)")
	f.cache.register(fs)
	fs.StringVar(&f.telemetryOut, "telemetry", "", "write the telemetry snapshot (phase spans + counters) as JSON to this file ('-' for stdout)")
	fs.BoolVar(&f.telemetryText, "telemetry-text", false, "render the telemetry snapshot as text on stderr after the run")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve live /metrics, /events, /healthz and /debug/pprof on this address (e.g. :9090) while the run is in flight")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file (taken at exit)")
	fs.StringVar(&f.trace, "trace", "", "write a runtime execution trace to this file")
	return f
}

// RegisterCache registers only the table-cache flags on fs.
func RegisterCache(fs *flag.FlagSet) *CacheFlags {
	c := new(CacheFlags)
	c.register(fs)
	return c
}

func (c *CacheFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.dir, "table-cache", "", "directory for the persistent lookup-table cache (reused across runs)")
	fs.StringVar(&c.mem, "table-cache-mem", "", "in-memory table cache budget, e.g. 64M or 2GiB (empty = unbounded)")
	fs.StringVar(&c.size, "table-cache-size", "", "on-disk table cache budget under -table-cache, e.g. 512M (empty = unbounded)")
}

// NewCache builds the table cache the flags describe through
// core.NewCache: held in memory alone when no flag is given, over a disk
// store under -table-cache, bounded by -table-cache-mem and
// -table-cache-size. warn receives corrupt-entry and failed write-back
// warnings. A malformed budget, or -table-cache-size without
// -table-cache, is an error naming the flag.
func (c *CacheFlags) NewCache(warn func(msg string)) (*core.Cache, error) {
	mem, err := units.ParseBytes(c.mem)
	if err != nil {
		return nil, fmt.Errorf("-table-cache-mem: %w", err)
	}
	size, err := units.ParseBytes(c.size)
	if err != nil {
		return nil, fmt.Errorf("-table-cache-size: %w", err)
	}
	cache, err := core.NewCache(c.dir, mem, size)
	if err != nil {
		return nil, fmt.Errorf("-table-cache-size: %w", err)
	}
	cache.SetWarn(warn)
	return cache, nil
}

// Run is one command run begun by Flags.Start and ended by End.
type Run struct {
	Cache *core.Cache
	// Sink is nil when no report, metrics server or progress stream
	// wants one, so instrumentation costs nothing.
	Sink *telemetry.Sink

	prog         string
	quiet        bool
	flags        *Flags
	stopProfiles func() error
	stopProgress func()
	server       *telemetry.Server
}

// progressBuffer sizes the progress printer's subscription. Span ends
// are phase and core granular, hundreds per run, so no line is lost on
// any realistic run; a stalled printer drops and counts events like any
// other subscriber instead of blocking workers.
const progressBuffer = 4096

// Start begins a run of the command prog: it builds the table cache,
// starts the profiles, the telemetry sink — also when there is a
// progress printer — and the metrics server, announced on stderr unless
// quiet, and publishes the run's start marker. A non-nil progress is
// called with the path and duration of every span that ends, in publish
// order, on a goroutine of its own that subscribes to the sink's bus.
// The returned context is cancelled by the first SIGINT or SIGTERM; a
// second one kills the process. Start exits 2 on a bad cache flag and 1
// when a profile or the server cannot start.
func (f *Flags) Start(prog string, progress func(path string, elapsed time.Duration), quiet bool) (context.Context, *Run) {
	r := &Run{prog: prog, quiet: quiet, flags: f}
	cache, err := f.cache.NewCache(func(msg string) { fmt.Fprintf(os.Stderr, "%s: %s\n", prog, msg) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(2)
	}
	r.Cache = cache

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop() // restore the default handlers: a second signal kills
	}()
	if r.stopProfiles, err = telemetry.StartProfiles(f.cpuProfile, f.memProfile, f.trace); err != nil {
		r.fatal(err)
	}
	if progress != nil || f.telemetryOut != "" || f.telemetryText || f.metricsAddr != "" {
		r.Sink = telemetry.New()
	}
	r.stopProgress = func() {}
	if progress != nil {
		sub, printed := r.Sink.Subscribe(telemetry.MaskSpan, progressBuffer), make(chan struct{})
		go func() {
			defer close(printed)
			for ev := range sub.C() {
				progress(ev.Name, time.Duration(ev.DurNs))
			}
		}()
		r.stopProgress = func() { sub.Close(); <-printed }
	}
	if f.metricsAddr != "" {
		if r.server, err = telemetry.StartServer(f.metricsAddr, r.Sink); err != nil {
			r.fatal(err)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "%s: serving metrics on http://%s/metrics\n", prog, r.server.Addr())
		}
	}
	r.Sink.PublishRun(prog, "start")
	return ctx, r
}

// End ends the run begun by Start. It stops the profiles, marks the run
// done — or cancelled, counting run.cancelled — waits for the progress
// printer to print every span that ended, writes the -telemetry and
// -telemetry-text reports, and stops the metrics server after a last
// scrape. End returns when err is nil and the profiles stopped cleanly.
// A cancelled run exits 130 with its report written; any other error
// exits 1 without one.
func (r *Run) End(err error) {
	if perr := r.stopProfiles(); err == nil {
		err = perr
	}
	cancelled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if cancelled {
		r.Sink.Counter("run.cancelled").Inc()
		r.Sink.PublishRun(r.prog, "cancelled")
	} else if err == nil {
		r.Sink.PublishRun(r.prog, "done")
	}
	// Close the progress subscription and let the printer drain it, so
	// every progress line lands on stderr ahead of the reports.
	r.stopProgress()
	if err == nil || cancelled {
		r.writeReports()
	}
	if serr := r.server.ShutdownTimeout(2 * time.Second); serr != nil && !r.quiet {
		fmt.Fprintf(os.Stderr, "%s: metrics server: %v\n", r.prog, serr)
	}
	if cancelled {
		fmt.Fprintf(os.Stderr, "%s: interrupted: %v\n", r.prog, err)
		os.Exit(130)
	}
	if err != nil {
		r.fatal(err)
	}
}

// writeReports writes the sink's snapshot to the -telemetry file and as
// -telemetry-text on stderr; a nil sink writes nothing.
func (r *Run) writeReports() {
	if r.Sink == nil {
		return
	}
	sn := r.Sink.Snapshot()
	if out := r.flags.telemetryOut; out != "" {
		w := os.Stdout
		if out != "-" {
			f, err := os.Create(out)
			if err != nil {
				r.fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := sn.WriteJSON(w); err != nil {
			r.fatal(err)
		}
	}
	if r.flags.telemetryText {
		if err := sn.Render(os.Stderr); err != nil {
			r.fatal(err)
		}
	}
}

func (r *Run) fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", r.prog, err)
	os.Exit(1)
}
