package serve

// End-to-end tests of the optimization service over real HTTP
// (httptest), exercising the job queue, rate limiter, shared cache,
// streaming, and graceful drain. Run with -race: most of what this
// server does is concurrency.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"soctap"
	"soctap/internal/core"
	"soctap/internal/sched"
	"soctap/internal/soc"
)

// tinyDesign is a 3-core SOC that optimizes in single-digit
// milliseconds — cheap enough to hammer concurrently.
const tinyDesign = `
SocName tinysoc
Core a
  Inputs 16
  Outputs 12
  ScanChains 8 30 30 30 30 30 30 30 30
  Patterns 20
  CareDensity 0.04
EndCore
Core b
  Inputs 12
  Outputs 10
  ScanChains 6 25 25 25 25 25 25
  Patterns 15
  CareDensity 0.06
EndCore
Core c
  Inputs 20
  Outputs 8
  ScanChains 10 20 20 20 20 20 20 20 20 20 20
  Patterns 25
  CareDensity 0.03
EndCore
`

const tinyCores = 3

// newTestServer stands up a Server on a real listener. Each call gets
// its own (cold) cache and sink.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postDesign submits tinyDesign and returns the decoded status + body.
func postDesign(t *testing.T, ts *httptest.Server, query string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/optimize?"+query, "text/plain", strings.NewReader(tinyDesign))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestOptimizeEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	status, body := postDesign(t, ts, "width=16")
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var out optimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.JobID == "" {
		t.Error("no job_id")
	}
	if len(out.Plan.Cores) != tinyCores {
		t.Errorf("plan has %d cores, want %d", len(out.Plan.Cores), tinyCores)
	}
	if out.Plan.TestTime <= 0 {
		t.Errorf("non-positive test time %d", out.Plan.TestTime)
	}

	// Built-in benchmark by name: the body is ignored in favor of ?design=.
	resp, err := http.Post(ts.URL+"/v1/optimize?design=d695&width=16", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("builtin design: status %d, body %s", resp.StatusCode, body)
	}

	sn := s.Sink().Snapshot()
	if sn.Counters["serve.completed"] != 2 {
		t.Errorf("serve.completed = %d, want 2", sn.Counters["serve.completed"])
	}
	if sn.Counters["tables.built"] == 0 {
		t.Error("global sink absorbed no tables.built")
	}
}

func TestOptimizeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})

	cases := []struct {
		name, query, body string
		want              int
	}{
		{"missing width", "", "SocName x\n", http.StatusBadRequest},
		{"bad width", "width=banana", "SocName x\n", http.StatusBadRequest},
		{"unknown builtin", "design=nope&width=16", "", http.StatusBadRequest},
		{"unknown style", "width=16&style=quantum", tinyDesign[:200], http.StatusBadRequest},
		{"bad timeout", "width=16&timeout=-3s", tinyDesign[:200], http.StatusBadRequest},
		{"bad kinds", "width=16&kinds=froth", tinyDesign[:200], http.StatusBadRequest},
		{"oversized body", "width=16", tinyDesign, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/optimize?"+tc.query, "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON with error field: %s", tc.name, body)
		}
	}
}

// TestJobWorkersCap: a request's ?workers may only narrow the server's
// per-job bound, JobWorkers, which is one worker per CPU when it is 0;
// without ?workers a job runs at JobWorkers as configured.
func TestJobWorkersCap(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		jobWorkers int
		query      string
		want       int
	}{
		{0, "", 0},
		{0, "&workers=1", 1},
		{0, fmt.Sprintf("&workers=%d", procs), procs},
		{0, fmt.Sprintf("&workers=%d", procs+63), procs},
		{0, "&workers=1000", procs},
		{3, "", 3},
		{3, "&workers=2", 2},
		{3, "&workers=64", 3},
		{3, "&workers=0", 3},
	}
	for _, tc := range cases {
		s := New(Config{JobWorkers: tc.jobWorkers})
		r := httptest.NewRequest(http.MethodPost, "/v1/optimize?design=System4&width=32"+tc.query, nil)
		req, err := s.parseJob(r)
		if err != nil {
			t.Fatalf("JobWorkers %d, %q: %v", tc.jobWorkers, tc.query, err)
		}
		if got := req.opts.Tables.Workers; got != tc.want {
			t.Errorf("JobWorkers %d, %q: job runs on %d workers, want %d", tc.jobWorkers, tc.query, got, tc.want)
		}
	}
}

// TestTechSelEndpoint: a technique-selection request on d695 answers
// 200 with a plan whose choices include dictionary coding, and the
// served plan, rebuilt into a result, passes VerifyPlan.
func TestTechSelEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/optimize?design=d695&width=32&techsel=1", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var out optimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	s, _ := soctap.Benchmark("d695")
	res := servedResult(t, s, out.Plan)
	dict := 0
	for _, ch := range res.Choices {
		if ch.Config.Codec == core.CodecDict {
			dict++
		}
	}
	if dict == 0 {
		t.Fatalf("techsel plan has no dictionary core: %s", body)
	}
	if err := soctap.VerifyPlan(res); err != nil {
		t.Errorf("served techsel plan (%d dictionary cores) failed verification: %v", dict, err)
	}
}

// servedResult rebuilds the tdc-per-core result a served plan of s
// describes: its partition, its choices in plan order and the schedule
// they make.
func servedResult(t *testing.T, s *soctap.SOC, p soctap.Plan) *core.Result {
	t.Helper()
	res := &core.Result{
		SOC: s, Style: core.StyleTDCPerCore, WTAM: p.WTAM, Partition: p.Partition,
		TestTime: p.TestTime, Volume: p.Volume,
		Schedule: &sched.Schedule{Widths: p.Partition, BusTimes: make([]int64, len(p.Partition)), Makespan: p.TestTime},
	}
	for _, c := range p.Cores {
		idx := slices.IndexFunc(s.Cores, func(sc *soctap.Core) bool { return sc.Name == c.Core })
		if idx < 0 || c.Bus < 0 || c.Bus >= len(p.Partition) {
			t.Fatalf("served plan: core %q on bus %d of %v", c.Core, c.Bus, p.Partition)
		}
		codec := c.Codec
		if codec == "direct" {
			codec = core.CodecDirect
		}
		res.Choices = append(res.Choices, core.CoreChoice{Core: c.Core, Bus: c.Bus, Start: c.Start, Config: core.Config{
			Feasible: true, UseTDC: codec != core.CodecDirect, Codec: codec,
			Width: c.Width, M: c.M, DictWords: c.DictWords, Time: c.Cycles, Volume: c.Volume,
		}})
		res.Schedule.Items = append(res.Schedule.Items, sched.Item{Core: idx, Bus: c.Bus, Start: c.Start, Duration: c.Cycles})
		res.Schedule.BusTimes[c.Bus] = max(res.Schedule.BusTimes[c.Bus], c.Start+c.Cycles)
	}
	return res
}

// TestDeadlineCancelsMidBuild submits a cold d695 (≥100ms of table
// building) with a deadline far shorter: the job context must cut the
// build short and surface as 504, not run to completion.
func TestDeadlineCancelsMidBuild(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/optimize?design=d695&width=16&timeout=20ms", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	// Generous bound: the point is the job did not run to completion.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline-bound request took %v", elapsed)
	}
	if n := s.Sink().Snapshot().Counters["serve.deadline_exceeded"]; n != 1 {
		t.Errorf("serve.deadline_exceeded = %d, want 1", n)
	}
}

// TestTechSelDeadlineInSweep times out a technique-selection request
// inside its dictionary sweep, on tables a plain request warmed: with
// the tables in memory, what ?techsel=1 adds to a plain request is the
// sweep, so a deadline a quarter of that extra time past the plain
// request's lands in it. The answer must be a 504 before three
// quarters of the sweep would have run (the sweeps stop at their next
// pattern), counted in serve.deadline_exceeded, with no table built
// and no goroutine left behind.
func TestTechSelDeadlineInSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post := func(query string) (int, time.Duration) {
		t.Helper()
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/optimize?design=System1&width=32"+query, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, time.Since(start)
	}
	// The minimum of a few warm runs of each: the first plain request
	// builds the tables, and a run slowed by the host would push the
	// deadline past the sweep.
	warm := func(query string, runs int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range runs {
			st, d := post(query)
			if st != http.StatusOK {
				t.Fatalf("warm request %q: status %d", query, st)
			}
			best = min(best, d)
		}
		return best
	}
	warm("", 1)
	plain := warm("", 3)
	sweep := warm("&techsel=1", 2) - plain
	if sweep <= 0 {
		t.Fatalf("technique selection took no longer than a plain request (%v)", plain)
	}
	built := s.Sink().Snapshot().Counters["tables.built"]
	before := runtime.NumGoroutine()

	timeout := plain + sweep/4
	st, elapsed := post(fmt.Sprintf("&techsel=1&timeout=%dus", timeout.Microseconds()))
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (deadline %v, plain %v, sweep %v)", st, timeout, plain, sweep)
	}
	t.Logf("deadline %v, answered after %v (plain request %v, sweep %v)", timeout, elapsed, plain, sweep)
	if limit := plain + 3*sweep/4; elapsed > limit {
		t.Errorf("timed-out request answered after %v, want within %v (deadline %v): the sweep did not stop", elapsed, limit, timeout)
	}
	snap := s.Sink().Snapshot()
	if n := snap.Counters["serve.deadline_exceeded"]; n != 1 {
		t.Errorf("serve.deadline_exceeded = %d, want 1", n)
	}
	if n := snap.Counters["tables.built"]; n != built {
		t.Errorf("tables.built moved from %d to %d: the deadline did not land in the sweep", built, n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines: %d before the timed-out request, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

func TestRateLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{RatePerSec: 0.001, Burst: 1})

	// The limiter runs before parsing, so empty bodies (400) spend
	// tokens without paying for an optimize.
	resp, err := http.Post(ts.URL+"/v1/optimize", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("first request: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/optimize", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// A different tenant (API key) has its own bucket.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/optimize", nil)
	req.Header.Set("X-API-Key", "tenant-b")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("other tenant: status %d, want 400 (not rate limited)", resp.StatusCode)
	}
	if n := s.Sink().Snapshot().Counters["serve.rate_limited"]; n != 1 {
		t.Errorf("serve.rate_limited = %d, want 1", n)
	}
}

// TestConcurrentIdenticalSingleBuild is the economic core of the
// service: many clients optimizing the same design must share one table
// build per core, coalesced by the cache's singleflight — observed here
// through the fleet-wide tables.built counter.
func TestConcurrentIdenticalSingleBuild(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 4})

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/optimize?width=16", "text/plain", strings.NewReader(tinyDesign))
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	sn := s.Sink().Snapshot()
	if sn.Counters["serve.completed"] != clients {
		t.Fatalf("serve.completed = %d, want %d", sn.Counters["serve.completed"], clients)
	}
	if built := sn.Counters["tables.built"]; built != tinyCores {
		t.Errorf("tables.built = %d after %d identical requests, want %d (one build per core, ever)",
			built, clients, tinyCores)
	}
}

// TestQueueFull verifies the second admission bound: with one slot and
// a one-deep queue, a third concurrent job is refused with 503 instead
// of waiting without bound. The first job is held on its slot until
// the others have arrived: the second is sent once the first holds the
// slot, the third once the second is admitted.
func TestQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 1, MaxQueue: 1})
	holding, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	s.onSlot = func() {
		first.Do(func() { close(holding) })
		<-release
	}
	post := func() int {
		resp, err := http.Post(ts.URL+"/v1/optimize?design=d695&width=16", "text/plain", nil)
		if err != nil {
			t.Error(err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	statuses := make(chan int, 2)
	go func() { statuses <- post() }()
	select {
	case <-holding:
	case st := <-statuses:
		t.Fatalf("first job answered %d without holding a slot", st)
	}
	go func() { statuses <- post() }()
	for deadline := time.Now().Add(10 * time.Second); s.pending.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("second job not admitted: %d pending", s.pending.Load())
		}
	}
	if st := post(); st != http.StatusServiceUnavailable {
		t.Errorf("third job: status %d, want %d", st, http.StatusServiceUnavailable)
	}
	close(release)
	for range 2 {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("admitted job: status %d, want %d", st, http.StatusOK)
		}
	}
	if n := s.Sink().Snapshot().Counters["serve.queue_rejected"]; n != 1 {
		t.Errorf("serve.queue_rejected = %d, want 1", n)
	}
}

// TestStreamingProgress reads a ?stream=1 response line by line: run
// and span telemetry events while the job is in flight, then a terminal
// result line carrying the plan.
func TestStreamingProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v1/optimize?width=16&stream=1", "text/plain", strings.NewReader(tinyDesign))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}

	var runEvents, spanEvents int
	var last map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := map[string]any{}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("non-JSON line %q: %v", sc.Text(), err)
		}
		switch line["kind"] {
		case "run":
			runEvents++
		case "span":
			spanEvents++
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if runEvents < 2 { // start + done
		t.Errorf("%d run events, want >= 2", runEvents)
	}
	if spanEvents == 0 {
		t.Error("no span progress events")
	}
	if last["kind"] != "result" {
		t.Fatalf("terminal line kind %v, want result", last["kind"])
	}
	if last["plan"] == nil {
		t.Error("terminal line has no plan")
	}
}

// TestDrainGraceful exercises shutdown: draining flips healthz to 503,
// refuses new jobs, cancels stragglers past the drain deadline, and
// leaves no job goroutines behind.
func TestDrainGraceful(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{})

	if st := healthz(t, ts); st != http.StatusOK {
		t.Fatalf("healthz before drain: %d", st)
	}

	// A cold d695 job that will still be running when Drain starts.
	slowDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/optimize?design=d695&width=16", "text/plain", nil)
		if err != nil {
			slowDone <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let it get into the build

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.Drain(drainCtx)
	if err == nil {
		t.Log("job finished inside the drain window; cancellation path not taken")
	} else if err != context.DeadlineExceeded {
		t.Errorf("Drain: %v", err)
	}

	// Drain returned: the job goroutine is gone, so its response is
	// either done (200) or cancelled (503).
	st := <-slowDone
	if err != nil && st != http.StatusServiceUnavailable {
		t.Errorf("cancelled in-flight job: status %d, want 503", st)
	}

	if st := healthz(t, ts); st != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", st)
	}
	if st, body := postDesign(t, ts, "width=16"); st != http.StatusServiceUnavailable {
		t.Errorf("new job while draining: %d (%s), want 503", st, body)
	}

	ts.Close()
	// No goroutine leaks: everything the server started has unwound.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines: %d at start, %d after drain+close\n%s", base, n, buf[:runtime.Stack(buf, true)])
	}
}

func healthz(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestMetricsExposure checks the serve-plane series reach /metrics on
// the same handler, absorbed from job sinks into the global one.
func TestMetricsExposure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if st, body := postDesign(t, ts, "width=16"); st != http.StatusOK {
		t.Fatalf("optimize: %d (%s)", st, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"soctap_serve_requests_total 1",
		"soctap_serve_completed_total 1",
		"soctap_tables_built_total",
		"soctap_serve_request_seconds",
		// Job histograms merge into the server's.
		"soctap_eval_task_seconds_count",
		"soctap_tables_build_seconds_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Client-cardinality per-core series must NOT be absorbed.
	if strings.Contains(string(body), "soctap_prune_") || strings.Contains(string(body), "soctap_fused_") {
		t.Error("/metrics leaked per-core prune./fused. series from a job sink")
	}
}

// settledHeap is the live heap after a full collection.
func settledHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestUploadHeapWithinCacheBudget: never-seen uploads to a server whose
// cache has a small memory budget leave at most that budget on the
// heap, plus a constant for the server itself. An upload's cubes become
// garbage once its response is written, and the tables the cache keeps
// hold only their rows, so the budget bounds what the uploads retain.
// The uploads are shaped like socbench serve-mixed's: 3-core
// industrial designs at half scale, each core a new cache key.
func TestUploadHeapWithinCacheBudget(t *testing.T) {
	const uploads = 24
	const budget = 256 << 10 // 15 tables at MaxWidth 64
	const constant = 1 << 20
	cache, err := core.NewCache("", budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: cache, MaxJobs: 1})
	texts := make([][]byte, uploads+1)
	for i := range texts {
		s, err := soc.Synthesize(context.Background(), soc.SynthSpec{
			Name: fmt.Sprintf("upload-%d", i), Profile: "industrial", Cores: 3, Seed: 33, Patterns: 24, Scale: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range s.Cores {
			c.Seed = int64(1000*i + j + 1)
		}
		var buf bytes.Buffer
		if err := soc.Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		texts[i] = buf.Bytes()
	}
	upload := func(text []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/optimize?width=32&style=tdc-per-core", "text/plain", bytes.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload: status %d, body %s", resp.StatusCode, body)
		}
	}
	// The first upload sets up the connection and the server's series.
	upload(texts[0])
	before := settledHeap()
	for _, text := range texts[1:] {
		upload(text)
	}
	grew := settledHeap() - before
	t.Logf("%d uploads grew the heap by %d B under a %d B cache budget", uploads, grew, budget)
	if grew > budget+constant {
		t.Errorf("%d uploads grew the heap by %d B, over the %d B cache budget plus %d B: the server keeps more than its cached tables' rows",
			uploads, grew, budget, constant)
	}
}
