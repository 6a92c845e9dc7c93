// Package serve wraps the optimizer in a long-running network service:
// optimization-as-a-service. A Server accepts a .soc design plus options
// over HTTP (POST /v1/optimize), runs it through soctap.OptimizeContext
// on a bounded-concurrency job queue with a per-request deadline, and
// returns the architecture/schedule as JSON — or, with ?stream=1, as a
// live NDJSON feed of the job's telemetry events closed by the result.
//
// Multi-tenant shape:
//
//   - every worker shares one table cache (the one-lock singleflight
//     LRU over the bounded v2 disk store), so structurally identical
//     cores across clients are built exactly once, ever;
//   - a token-bucket rate limiter keyed by API key (or remote address)
//     keeps one client from starving the rest;
//   - admission is bounded twice — MaxJobs jobs run concurrently,
//     MaxQueue more may wait — and everything past that is refused
//     with 503 instead of queued without bound.
//
// Telemetry is two-level. Each job runs against its own private sink
// (span tree and counters die with the job, so a long-lived daemon
// never accumulates per-job series); when the job completes, its
// counters, timers and gauges are folded into the server-global sink —
// minus the per-core prune.*/fused.* series, whose name cardinality is
// client-controlled — which /metrics and /events expose. The global
// tables.built counter therefore reports exactly how many tables the
// whole fleet of requests ever built: warm identical-design traffic
// holds it flat.
//
// Shutdown is graceful: Drain stops admission (healthz flips to 503 so
// load balancers rotate the instance out), waits for in-flight jobs,
// and past the drain deadline cancels them through the same context
// plumbing a client disconnect uses.
package serve

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soctap"
	"soctap/internal/telemetry"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a serving-sane default, applied by New.
type Config struct {
	// MaxJobs bounds how many optimize jobs run concurrently (default
	// 2): each job already fans out over JobWorkers goroutines, so this
	// is a product, not a sum.
	MaxJobs int
	// MaxQueue bounds how many admitted jobs may wait for a slot beyond
	// the MaxJobs running (default 64). Past it requests get 503.
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the client sends
	// none (default 60s); MaxTimeout caps what a client may ask for
	// (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps the uploaded .soc design (default 8 MiB).
	MaxBodyBytes int64
	// RatePerSec and Burst configure the per-client token bucket
	// (0 rate = unlimited; Burst defaults to max(2*rate, 4)).
	RatePerSec float64
	Burst      float64
	// JobWorkers bounds each job's evaluation-engine parallelism
	// (soctap Options.Workers; 0 = one per CPU). It also caps the
	// per-request ?workers override.
	JobWorkers int
	// Cache is the shared table cache; New creates one when nil. Give
	// it its disk store and budgets (core.NewCache, as cmd/socserve
	// does) before serving.
	Cache *soctap.Cache
	// Sink is the server-global telemetry sink behind /metrics and
	// /events; New creates one when nil.
	Sink *soctap.TelemetrySink
}

// withDefaults fills the zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.RatePerSec > 0 && cfg.Burst <= 0 {
		cfg.Burst = max(2*cfg.RatePerSec, 4)
	}
	if cfg.Cache == nil {
		cfg.Cache = new(soctap.Cache)
	}
	if cfg.Sink == nil {
		cfg.Sink = soctap.NewTelemetry()
	}
	return cfg
}

// Server is one optimization-as-a-service instance. Create with New,
// mount Handler on an http.Server, stop with Drain.
type Server struct {
	cfg  Config
	sink *telemetry.Sink
	lim  *limiter

	sem     chan struct{} // MaxJobs slots
	pending atomic.Int64  // admitted (queued + running) jobs
	jobSeq  atomic.Int64

	mu       sync.Mutex // guards draining vs. job admission
	draining bool
	jobs     sync.WaitGroup

	jobsCtx    context.Context // cancelled to abort in-flight jobs
	cancelJobs context.CancelFunc

	handler http.Handler

	// onSlot, when set, runs on each job once it holds its worker
	// slot. Only this package's tests set it, to pin a job to its slot.
	onSlot func()
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		sink: cfg.Sink,
		lim:  newLimiter(cfg.RatePerSec, cfg.Burst),
		sem:  make(chan struct{}, cfg.MaxJobs),
	}
	s.jobsCtx, s.cancelJobs = context.WithCancel(context.Background())

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Everything else — /metrics, /events, /debug/pprof — is the
	// telemetry plane over the server-global sink.
	mux.Handle("/", soctap.NewTelemetryHandler(cfg.Sink))
	s.handler = mux
	return s
}

// Handler returns the server's HTTP surface for mounting.
func (s *Server) Handler() http.Handler { return s.handler }

// Sink returns the server-global telemetry sink (the one /metrics
// exposes).
func (s *Server) Sink() *telemetry.Sink { return s.sink }

// Draining reports whether Drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the job plane: admission closes immediately
// (healthz turns 503, new optimize requests are refused), in-flight
// jobs run to completion, and if ctx expires first they are cancelled
// through their contexts and still waited for — Drain never returns
// with a job goroutine alive. The HTTP listener itself is the caller's
// to close (http.Server.Shutdown after Drain).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelJobs()
		<-done
		return ctx.Err()
	}
}

// beginJob admits one job unless the server is draining. The matching
// jobs.Done is the caller's (deferred) responsibility when ok.
func (s *Server) beginJob() (id int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0, false
	}
	s.jobs.Add(1)
	return s.jobSeq.Add(1), true
}

// absorb folds a completed job's private sink into the server-global
// one: counters and timers add, gauges keep the maximum. The per-core
// prune.*/fused.* series are dropped — their name cardinality is
// client-controlled (one series per core name), which would grow
// /metrics without bound under multi-tenant traffic. Histograms stay
// per-job; the server observes its own serve.request_seconds instead.
func (s *Server) absorb(job *telemetry.Sink) {
	sn := job.Snapshot()
	for name, v := range sn.Counters {
		if strings.HasPrefix(name, "prune.") || strings.HasPrefix(name, "fused.") {
			continue
		}
		s.sink.Counter(name).Add(v)
	}
	for name, secs := range sn.Timings {
		s.sink.Timer(name).Add(time.Duration(secs * float64(time.Second)))
	}
	for name, v := range sn.Gauges {
		s.sink.Gauge(name).Observe(v)
	}
}
