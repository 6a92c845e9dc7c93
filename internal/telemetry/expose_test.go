package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestWriteOpenMetricsGolden pins the exposition byte-for-byte: family
// ordering, metric-name sanitization, label escaping, suffix
// conventions and the trailing # EOF are all part of the format
// contract, so scraping configs stay stable across releases.
func TestWriteOpenMetricsGolden(t *testing.T) {
	sn := &Snapshot{
		Meta: Meta{WallNs: 1_500_000_000, GoVersion: "go1.24.0", VCSRevision: "abc123"},
		Counters: map[string]int64{
			"tables.built":   4,
			"cache.mem_hits": 9,
		},
		Gauges: map[string]int64{"eval.peak_heap_bytes": 1024},
		Histograms: map[string]HistogramSnap{
			"diskcache.load_seconds": {
				Count: 3, SumSeconds: 0.006,
				P50Seconds: 0.001, P90Seconds: 0.002, P99Seconds: 0.004,
			},
		},
		EventsDropped: 2,
		Spans: []SpanSnap{{
			Name: "tables", Seconds: 1.25, Count: 2,
			Children: []SpanSnap{{Name: "core:a", Seconds: 0.5, Count: 1}},
		}},
	}
	const want = `# TYPE soctap_build info
soctap_build_info{go_version="go1.24.0",vcs_revision="abc123"} 1
# TYPE soctap_run_wall_seconds gauge
soctap_run_wall_seconds 1.5
# TYPE soctap_telemetry_events_dropped counter
soctap_telemetry_events_dropped_total 2
# TYPE soctap_cache_mem_hits counter
soctap_cache_mem_hits_total 9
# TYPE soctap_tables_built counter
soctap_tables_built_total 4
# TYPE soctap_eval_peak_heap_bytes gauge
soctap_eval_peak_heap_bytes 1024
# TYPE soctap_diskcache_load_seconds summary
soctap_diskcache_load_seconds{quantile="0.5"} 0.001
soctap_diskcache_load_seconds{quantile="0.9"} 0.002
soctap_diskcache_load_seconds{quantile="0.99"} 0.004
soctap_diskcache_load_seconds_sum 0.006
soctap_diskcache_load_seconds_count 3
# TYPE soctap_span_seconds counter
soctap_span_seconds_total{path="tables"} 1.25
soctap_span_seconds_total{path="tables/core:a"} 0.5
# TYPE soctap_span_count counter
soctap_span_count_total{path="tables"} 2
soctap_span_count_total{path="tables/core:a"} 1
# EOF
`
	var b strings.Builder
	if err := sn.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("exposition drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Rendering twice must be byte-identical (map iteration must not
	// leak into the ordering).
	var b2 strings.Builder
	if err := sn.WriteOpenMetrics(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("exposition not deterministic across renders")
	}
}

// startTestServer boots the observability endpoint on a loopback port
// and tears it down with the test.
func startTestServer(t *testing.T, s *Sink) *Server {
	t.Helper()
	srv, err := StartServer("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.ShutdownTimeout(5 * time.Second) })
	return srv
}

// TestMetricsAndHealthzEndpoints: the live endpoints serve the expected
// content types and bodies.
func TestMetricsAndHealthzEndpoints(t *testing.T) {
	s := New()
	s.Counter("tables.built").Add(3)
	s.Histogram("diskcache.load_seconds").Observe(2 * time.Millisecond)
	srv := startTestServer(t, s)

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("content type %q", ct)
	}
	var body strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text() + "\n")
	}
	out := body.String()
	for _, want := range []string{
		"soctap_tables_built_total 3",
		"soctap_diskcache_load_seconds_count 1",
		"soctap_build_info{",
		"# EOF",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}

	hr, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", hr.StatusCode)
	}
}

// TestEventsStream: /events delivers published events as NDJSON lines,
// filtered by ?kinds=.
func TestEventsStream(t *testing.T) {
	s := New()
	srv := startTestServer(t, s)

	resp, err := http.Get("http://" + srv.Addr() + "/events?kinds=run,counter")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	// Publish after the subscription is live: poll until the handler has
	// attached its subscription to the bus.
	deadline := time.Now().Add(5 * time.Second)
	for s.bus.nsubs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("/events handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	s.PublishRun("repro", "start")
	s.Gauge("noise").Observe(1) // filtered out by ?kinds=
	s.Counter("tables.built").Inc()

	sc := bufio.NewScanner(resp.Body)
	var got []Event
	for len(got) < 2 && sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	if len(got) != 2 {
		t.Fatalf("read %d events, want 2 (%v)", len(got), sc.Err())
	}
	if got[0].Kind != KindRun || got[0].Name != "repro" || got[0].Label != "start" {
		t.Fatalf("first event %+v", got[0])
	}
	if got[1].Kind != KindCounter || got[1].Name != "tables.built" {
		t.Fatalf("second event %+v (gauge not filtered?)", got[1])
	}
}

// TestEventsBadKinds: an unknown ?kinds= value is a 400, not a stream.
func TestEventsBadKinds(t *testing.T) {
	s := New()
	srv := startTestServer(t, s)
	resp, err := http.Get("http://" + srv.Addr() + "/events?kinds=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestEventsSlowClientNeverBlocksPublisher: a client that opens /events
// and stops reading must not stall publishers — the events overflow the
// subscription ring and the socket, and are dropped and counted.
func TestEventsSlowClientNeverBlocksPublisher(t *testing.T) {
	s := New()
	srv := startTestServer(t, s)

	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() // never read from it

	deadline := time.Now().Add(5 * time.Second)
	for s.bus.nsubs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("/events handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	// Far more events than the subscription ring and the kernel socket
	// buffers can hold. With a blocking design this loop would hang; it
	// must finish promptly and register drops.
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := s.Counter("burst")
		for i := 0; i < 200_000; i++ {
			c.Inc()
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("publisher blocked behind a stalled /events client")
	}
	if s.EventsDropped() == 0 {
		t.Fatal("no drops recorded against the stalled client")
	}
}

// TestShutdownCancelsStreams: Shutdown must end open /events streams
// (they never end on their own) and return promptly.
func TestShutdownCancelsStreams(t *testing.T) {
	s := New()
	srv, err := StartServer("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("shutdown hung on the open stream: %v", elapsed)
	}
	// The stream is over: the body drains to EOF or a reset.
	buf := make([]byte, 256)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
	// Nil-server shutdown is a no-op.
	var nilSrv *Server
	if err := nilSrv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestParseKinds: the mask grammar of ?kinds=.
func TestParseKinds(t *testing.T) {
	if m, err := ParseKinds(""); err != nil || m != MaskAll {
		t.Fatalf("empty: %v %v", m, err)
	}
	if m, err := ParseKinds("span"); err != nil || m != MaskSpan {
		t.Fatalf("span: %v %v", m, err)
	}
	if m, err := ParseKinds("run, gauge"); err != nil || m != MaskRun|MaskGauge {
		t.Fatalf("run,gauge: %v %v", m, err)
	}
	if _, err := ParseKinds("span,wat"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// nonFlusherWriter hides every optional ResponseWriter interface —
// Flusher, deadline control, Unwrap — the way a minimal middleware
// wrapper (a status recorder, a rate limiter's accounting shim) does.
// It signals each body write so the test can sequence without racing
// the handler goroutine.
type nonFlusherWriter struct {
	inner http.ResponseWriter
	wrote chan struct{}
}

func (w *nonFlusherWriter) Header() http.Header  { return w.inner.Header() }
func (w *nonFlusherWriter) WriteHeader(code int) { w.inner.WriteHeader(code) }
func (w *nonFlusherWriter) Write(p []byte) (int, error) {
	n, err := w.inner.Write(p)
	select {
	case w.wrote <- struct{}{}:
	default:
	}
	return n, err
}

// TestEventsNonFlusherWriter: serveEvents behind a ResponseWriter with
// no Flusher anywhere in its chain must not panic — it degrades to
// unflushed streaming and still writes every event line. Regression
// test for the nil-interface Flush crash a non-Flusher middleware
// wrapper would have triggered.
func TestEventsNonFlusherWriter(t *testing.T) {
	s := New()
	rec := httptest.NewRecorder()
	w := &nonFlusherWriter{inner: rec, wrote: make(chan struct{}, 1)}

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/events?kinds=counter", nil).WithContext(ctx)

	done := make(chan struct{})
	go func() {
		defer close(done)
		serveEvents(s, w, req)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for s.bus.nsubs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("serveEvents never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	s.Counter("touches").Inc()
	select {
	case <-w.wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("event line never written through the non-Flusher wrapper")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveEvents did not return on context cancel")
	}

	var ev Event
	line := strings.TrimSpace(rec.Body.String())
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("body %q is not one event line: %v", line, err)
	}
	if ev.Kind != KindCounter || ev.Name != "touches" {
		t.Fatalf("unexpected event %+v", ev)
	}
}

// TestStalledHeaderReadReaped: a connection that opens and never
// finishes sending its request header must be closed by the server at
// ReadHeaderTimeout, not pinned forever. Regression test for the
// timeout-less http.Server StartServer used to build.
func TestStalledHeaderReadReaped(t *testing.T) {
	old := serverReadHeaderTimeout
	serverReadHeaderTimeout = 200 * time.Millisecond
	defer func() { serverReadHeaderTimeout = old }()

	s := New()
	srv := startTestServer(t, s)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A forever-incomplete header: request line sent, headers never
	// finished. A slowloris client holds exactly this state.
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // server closed (or reset) the stalled connection
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled header connection survived %v; want reap near the 200ms ReadHeaderTimeout", elapsed)
	}
}

// TestEventsStreamSurvivesWriteTimeout: the server-wide WriteTimeout
// must not reap a live /events stream — serveEvents clears the write
// deadline per-request, so events published after the nominal deadline
// still arrive.
func TestEventsStreamSurvivesWriteTimeout(t *testing.T) {
	oldW := serverWriteTimeout
	serverWriteTimeout = 300 * time.Millisecond
	defer func() { serverWriteTimeout = oldW }()

	s := New()
	srv := startTestServer(t, s)

	resp, err := http.Get("http://" + srv.Addr() + "/events?kinds=counter")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Outlive the WriteTimeout, then publish: the line must still come
	// through on the (deadline-cleared) stream.
	time.Sleep(2 * serverWriteTimeout)
	s.Counter("late").Inc()
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatal("stream closed by WriteTimeout before delivering the event")
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if ev.Name != "late" {
			t.Fatalf("unexpected event %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event never arrived on the long-lived stream")
	}
}
