package telemetry

// HTTP exposition: the live observability endpoints a long run (or the
// future socserve daemon) serves while working.
//
//	/metrics      OpenMetrics text rendering of the current Snapshot,
//	              deterministically ordered (families and series sorted)
//	/healthz      liveness probe
//	/events       NDJSON stream of bus events (?kinds=span,counter,...)
//	/debug/pprof  the standard runtime profiles
//
// NewHandler builds the handler for embedding; StartServer wraps it in
// an http.Server whose Shutdown first cancels streaming /events
// requests (they would otherwise hold graceful shutdown open forever)
// and then drains the rest.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricPrefix namespaces every exposed series.
const metricPrefix = "soctap_"

// WriteOpenMetrics renders the snapshot in OpenMetrics text format,
// deterministically: build info and run wall-clock first, then
// counters, gauges and histogram summaries each sorted by name,
// then the span tree (creation order) as labeled series, closed by the
// mandatory # EOF. Counter values are exact and worker-count
// deterministic; everything wall-clock is not (same split as the JSON
// snapshot).
func (sn *Snapshot) WriteOpenMetrics(w io.Writer) error {
	var b strings.Builder

	b.WriteString("# TYPE " + metricPrefix + "build info\n")
	fmt.Fprintf(&b, "%sbuild_info{go_version=%s,vcs_revision=%s} 1\n",
		metricPrefix, labelQuote(sn.Meta.GoVersion), labelQuote(sn.Meta.VCSRevision))

	b.WriteString("# TYPE " + metricPrefix + "run_wall_seconds gauge\n")
	fmt.Fprintf(&b, "%srun_wall_seconds %s\n", metricPrefix, fmtFloat(float64(sn.Meta.WallNs)/1e9))

	b.WriteString("# TYPE " + metricPrefix + "telemetry_events_dropped counter\n")
	fmt.Fprintf(&b, "%stelemetry_events_dropped_total %d\n", metricPrefix, sn.EventsDropped)

	for _, name := range sortedKeys(sn.Counters) {
		m := metricName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s_total %d\n", m, m, sn.Counters[name])
	}
	for _, name := range sortedKeys(sn.Gauges) {
		m := metricName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", m, m, sn.Gauges[name])
	}
	for _, name := range sortedKeys(sn.Histograms) {
		h := sn.Histograms[name]
		m := metricName(name)
		fmt.Fprintf(&b, "# TYPE %s summary\n", m)
		for _, q := range [...]struct {
			label string
			v     float64
		}{{"0.5", h.P50Seconds}, {"0.9", h.P90Seconds}, {"0.99", h.P99Seconds}} {
			fmt.Fprintf(&b, "%s{quantile=\"%s\"} %s\n", m, q.label, fmtFloat(q.v))
		}
		fmt.Fprintf(&b, "%s_sum %s\n", m, fmtFloat(h.SumSeconds))
		fmt.Fprintf(&b, "%s_count %d\n", m, h.Count)
	}

	if len(sn.Spans) > 0 {
		sm := metricPrefix + "span_seconds"
		cm := metricPrefix + "span_count"
		var secs, counts strings.Builder
		secs.WriteString("# TYPE " + sm + " counter\n")
		counts.WriteString("# TYPE " + cm + " counter\n")
		var dfs func(spans []SpanSnap, prefix string)
		dfs = func(spans []SpanSnap, prefix string) {
			for _, sp := range spans {
				path := sp.Name
				if prefix != "" {
					path = prefix + "/" + sp.Name
				}
				fmt.Fprintf(&secs, "%s_total{path=%s} %s\n", sm, labelQuote(path), fmtFloat(sp.Seconds))
				fmt.Fprintf(&counts, "%s_total{path=%s} %d\n", cm, labelQuote(path), sp.Count)
				dfs(sp.Children, path)
			}
		}
		dfs(sn.Spans, "")
		b.WriteString(secs.String())
		b.WriteString(counts.String())
	}

	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// sortedKeys returns the map's keys in sorted order — the deterministic
// series ordering of the exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metricName maps a dotted instrument name ("diskcache.load_seconds")
// onto a prefixed metric name ("soctap_diskcache_load_seconds"):
// characters outside [a-zA-Z0-9_] become underscores.
func metricName(name string) string {
	var b strings.Builder
	b.WriteString(metricPrefix)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// labelQuote renders a label value with OpenMetrics escaping.
func labelQuote(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return `"` + v + `"`
}

// fmtFloat renders a float deterministically and round-trippably.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// eventsBuffer is the ring depth of one /events subscription — deep
// enough to ride out client-side scheduling hiccups; a genuinely slow
// client loses events (drop-and-count) rather than slowing the run.
const eventsBuffer = 256

// openMetricsContentType is the exposition content type of /metrics.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// NewHandler serves the sink's observability endpoints: /metrics
// (OpenMetrics), /healthz, /events (live NDJSON off the event bus) and
// /debug/pprof. The handler is safe to mount in any server; /events
// streams until the request context ends (client disconnect, or server
// shutdown through StartServer).
func NewHandler(s *Sink) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", openMetricsContentType)
		if err := s.Snapshot().WriteOpenMetrics(w); err != nil {
			// The connection is gone; nothing useful to do.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(s, w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ParseKinds maps a comma-separated event-kind list ("span,counter,
// gauge,run", empty = all) onto an EventMask — the grammar of the
// ?kinds= query on /events and of every other NDJSON event stream.
func ParseKinds(q string) (EventMask, error) {
	if q == "" {
		return MaskAll, nil
	}
	var mask EventMask
	for _, part := range strings.Split(q, ",") {
		part = strings.TrimSpace(part)
		found := false
		for k, name := range eventKindNames {
			if name == part {
				mask |= EventKind(k).mask()
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("unknown event kind %q (want span, counter, gauge, run)", part)
		}
	}
	return mask, nil
}

// serveEvents streams bus events as NDJSON until the client disconnects
// or the server shuts down. The subscription is bounded: a client that
// stops reading loses events (counted), never stalls the publishers.
//
// Flushing goes through http.ResponseController, which sees through
// middleware wrappers that implement Unwrap. A ResponseWriter with no
// Flusher anywhere in its chain (e.g. a bare status-recording wrapper)
// degrades to unflushed streaming — lines reach the client when the
// server's buffer fills or the handler returns — instead of panicking
// on a nil interface. The write deadline is also cleared per-request,
// so a server-wide WriteTimeout (sane for scrapes) never reaps this
// deliberately endless response.
func serveEvents(s *Sink, w http.ResponseWriter, r *http.Request) {
	mask, err := ParseKinds(r.URL.Query().Get("kinds"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sub := s.Subscribe(mask, eventsBuffer)
	if sub == nil {
		http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{}) // best-effort: not every writer has a deadline
	canFlush := rc.Flush() == nil    // commit headers so clients see the stream open
	enc := json.NewEncoder(w)
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if canFlush {
				if err := rc.Flush(); err != nil {
					canFlush = false
				}
			}
		}
	}
}

// The exposition server's connection timeouts. A server with none set
// lets one slowloris client — a connection that sends its header a byte
// a minute, or never — pin a goroutine and a file descriptor forever.
// ReadHeaderTimeout reaps stalled header reads, IdleTimeout reaps
// keep-alive connections between requests, and WriteTimeout bounds
// scrape responses; the deliberately endless /events stream opts back
// out of the write bound per-request (see serveEvents). Variables, not
// constants, so the reap test can shorten them.
var (
	serverReadHeaderTimeout = 10 * time.Second
	serverWriteTimeout      = time.Minute
	serverIdleTimeout       = 2 * time.Minute
)

// Server is a running observability endpoint (see StartServer).
type Server struct {
	srv    *http.Server
	addr   string
	cancel context.CancelFunc // ends streaming request contexts
	done   chan struct{}
	err    error
}

// StartServer listens on addr and serves NewHandler(s) in the
// background. The returned Server reports the bound address (useful
// with ":0") and shuts down gracefully via Shutdown.
func StartServer(addr string, s *Sink) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	srv := &http.Server{
		Handler:           NewHandler(s),
		ReadHeaderTimeout: serverReadHeaderTimeout,
		WriteTimeout:      serverWriteTimeout,
		IdleTimeout:       serverIdleTimeout,
		BaseContext: func(net.Listener) context.Context {
			// Request contexts derive from baseCtx, so Shutdown can end
			// the otherwise-endless /events streams by cancelling it.
			return baseCtx
		},
	}
	ms := &Server{srv: srv, addr: ln.Addr().String(), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(ms.done)
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			ms.err = err
		}
	}()
	return ms, nil
}

// Addr returns the bound listen address.
func (ms *Server) Addr() string {
	if ms == nil {
		return ""
	}
	return ms.addr
}

// Shutdown stops the server: streaming /events requests are cancelled
// first (they never end on their own), then the listener closes and
// in-flight scrapes drain, bounded by ctx. A nil receiver is a no-op.
func (ms *Server) Shutdown(ctx context.Context) error {
	if ms == nil {
		return nil
	}
	ms.cancel()
	err := ms.srv.Shutdown(ctx)
	if err != nil {
		ms.srv.Close()
	}
	<-ms.done
	if ms.err != nil {
		return ms.err
	}
	return err
}

// ShutdownTimeout is Shutdown with a fresh deadline — the command
// binaries' one-liner.
func (ms *Server) ShutdownTimeout(d time.Duration) error {
	if ms == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return ms.Shutdown(ctx)
}
