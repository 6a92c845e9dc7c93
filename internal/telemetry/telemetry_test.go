package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSinkIsInert: every operation on the disabled layer — nil sink,
// nil span, nil counter, nil histogram, zero timing — must be a safe no-op.
func TestNilSinkIsInert(t *testing.T) {
	var s *Sink
	if s.Root() != nil || s.Span("x") != nil || s.Counter("c") != nil || s.Gauge("g") != nil || s.Histogram("h") != nil {
		t.Fatal("nil sink handed out non-nil instruments")
	}
	if s.Subscribe(MaskAll, 8) != nil {
		t.Fatal("nil sink handed out a subscription")
	}
	s.PublishRun("r", "start")

	var sp *Span
	if sp.Child("y") != nil || sp.Sink() != nil {
		t.Fatal("nil span handed out non-nil values")
	}
	sp.Begin().End()

	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Observe(42)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Record(42)
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram has state")
	}

	sn := s.Snapshot()
	if sn == nil || len(sn.Counters) != 0 || len(sn.Spans) != 0 {
		t.Fatalf("nil sink snapshot: %+v", sn)
	}
}

// TestNilFastPathAllocs: the disabled instrumentation primitives must
// not allocate — this is what lets hot loops carry them unconditionally.
func TestNilFastPathAllocs(t *testing.T) {
	var c *Counter
	var sp *Span
	var g *Gauge
	var h *Histogram
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Observe(7)
		h.Record(9)
		sp.Begin().End()
		_ = sp.Child("x")
	}); n != 0 {
		t.Fatalf("disabled telemetry primitives allocate %v times per op, want 0", n)
	}
}

// TestCountersAndSpans: basic accounting through an enabled sink.
func TestCountersAndSpans(t *testing.T) {
	s := New()
	s.Counter("sub.hits").Add(2)
	s.Counter("sub.hits").Inc() // same registry entry
	s.Counter("sub.misses").Inc()

	root := s.Root()
	phase := root.Child("phase")
	tt := phase.Begin()
	inner := phase.Child("inner")
	it := inner.Begin()
	it.End()
	it2 := inner.Begin() // merged by name: count 2
	it2.End()
	tt.End()

	sn := s.Snapshot()
	if sn.Counters["sub.hits"] != 3 || sn.Counters["sub.misses"] != 1 {
		t.Fatalf("counters: %v", sn.Counters)
	}
	if len(sn.Spans) != 1 || sn.Spans[0].Name != "phase" || sn.Spans[0].Count != 1 {
		t.Fatalf("span tree: %+v", sn.Spans)
	}
	if len(sn.Spans[0].Children) != 1 || sn.Spans[0].Children[0].Count != 2 {
		t.Fatalf("merged child span: %+v", sn.Spans[0].Children)
	}
}

// TestGaugeTracksMax: a gauge keeps the maximum across observations,
// including concurrent ones, and lands in the snapshot's Gauges map —
// apart from the deterministic counters.
func TestGaugeTracksMax(t *testing.T) {
	s := New()
	g := s.Gauge("eval.peak_heap_bytes")
	if g != s.Gauge("eval.peak_heap_bytes") {
		t.Fatal("gauge registry returned distinct instruments for one name")
	}
	g.Observe(10)
	g.Observe(3) // lower: ignored
	g.Observe(25)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for v := int64(0); v < 1000; v++ {
				g.Observe(base + v)
			}
		}(int64(i * 1000))
	}
	wg.Wait()
	if got := g.Value(); got != 7999 {
		t.Fatalf("gauge max = %d, want 7999", got)
	}

	sn := s.Snapshot()
	if sn.Gauges["eval.peak_heap_bytes"] != 7999 {
		t.Fatalf("snapshot gauges: %v", sn.Gauges)
	}
	if _, ok := sn.Counters["eval.peak_heap_bytes"]; ok {
		t.Fatal("gauge leaked into the counter map")
	}
}

// TestConcurrentCounters: many goroutines hammering one registry must
// lose no increments (run under -race in the tier-1 gate).
func TestConcurrentCounters(t *testing.T) {
	s := New()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Counter("shared").Inc()
				s.Span("phase").Child("p").Begin().End()
			}
		}()
	}
	wg.Wait()
	if got := s.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("lost increments: %d, want %d", got, workers*perWorker)
	}
	sn := s.Snapshot()
	if sn.Spans[0].Children[0].Count != workers*perWorker {
		t.Fatalf("lost span cycles: %+v", sn.Spans)
	}
}

// TestSnapshotJSONDeterminism: two snapshots of identical counter state
// marshal to identical counter JSON (keys sorted by encoding/json).
func TestSnapshotJSONDeterminism(t *testing.T) {
	mk := func() []byte {
		s := New()
		s.Counter("b.two").Add(2)
		s.Counter("a.one").Add(1)
		s.Counter("c.three").Add(3)
		sn := s.Snapshot()
		sn.TotalSeconds = 0 // timing erased for the byte comparison
		sn.Meta.WallNs = 0
		var buf bytes.Buffer
		if err := sn.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := mk(), mk(); !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestSnapshotRoundTrip: the written JSON is valid and decodes back to
// the same counters.
func TestSnapshotRoundTrip(t *testing.T) {
	s := New()
	s.Counter("diskcache.hits").Add(7)
	s.Span("search").Child("k-sweep").Begin().End()
	var buf bytes.Buffer
	if err := s.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid snapshot JSON: %v\n%s", err, buf.Bytes())
	}
	if back.Counters["diskcache.hits"] != 7 {
		t.Fatalf("round-tripped counters: %v", back.Counters)
	}
	if len(back.Spans) != 1 || back.Spans[0].Children[0].Name != "k-sweep" {
		t.Fatalf("round-tripped spans: %+v", back.Spans)
	}
}

// TestRenderText: the human rendering mentions phases, counters,
// histograms and the per-phase bars.
func TestRenderText(t *testing.T) {
	s := New()
	s.Counter("cache.mem_hits").Add(4)
	s.Histogram("eval.task_seconds").Observe(time.Second)
	tt := s.Span("tables").Begin()
	time.Sleep(2 * time.Millisecond)
	tt.End()
	var buf bytes.Buffer
	if err := s.Snapshot().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"phase spans", "tables", "cache.mem_hits", "4", "eval.task_seconds", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered text missing %q:\n%s", want, out)
		}
	}
}

// TestStartProfiles: the pprof escape hatches produce non-empty profile
// files and stop cleanly; empty paths are free.
func TestStartProfiles(t *testing.T) {
	stop, err := StartProfiles("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	tr := filepath.Join(dir, "trace.out")
	stop, err = StartProfiles(cpu, mem, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to hold.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, tr} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestRenderPruningRates: the snapshot text report surfaces per-core
// sweep pruning effectiveness from the prune.<core>.* counter pairs,
// with an aggregate row when several cores reported.
func TestRenderPruningRates(t *testing.T) {
	s := New()
	s.Counter("prune.cktA.pruned").Add(30)
	s.Counter("prune.cktA.evals").Add(70)
	s.Counter("prune.cktB.pruned").Add(0)
	s.Counter("prune.cktB.evals").Add(50)
	s.Counter("eval.tdc_evals").Add(120) // must not produce a row
	var buf bytes.Buffer
	if err := s.Snapshot().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sweep pruning", "cktA", "30.0%", "cktB", "0.0%", "(all cores)", "20.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered text missing %q:\n%s", want, out)
		}
	}

	// No pruning counters at all: no section.
	var empty bytes.Buffer
	if err := New().Snapshot().Render(&empty); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(empty.String(), "sweep pruning") {
		t.Fatal("pruning section rendered without pruning counters")
	}
}

// TestRenderFusedAmortization: the snapshot text report surfaces the
// fused-sweep pass amortization from the fused.<core>.* counter
// triples — passes, points, the points/pass fan-out, and window loads —
// with an aggregate row when several cores reported.
func TestRenderFusedAmortization(t *testing.T) {
	s := New()
	s.Counter("fused.cktA.passes").Add(2)
	s.Counter("fused.cktA.points").Add(90)
	s.Counter("fused.cktA.window_loads").Add(128)
	s.Counter("fused.cktB.passes").Add(1)
	s.Counter("fused.cktB.points").Add(10)
	s.Counter("fused.cktB.window_loads").Add(16)
	s.Counter("eval.passes").Add(3) // must not produce a row
	var buf bytes.Buffer
	if err := s.Snapshot().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fused sweep", "cktA", "45.0", "cktB", "10.0", "(all cores)", "33.3", "144"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered text missing %q:\n%s", want, out)
		}
	}

	// No fused counters at all: no section.
	var empty bytes.Buffer
	if err := New().Snapshot().Render(&empty); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(empty.String(), "fused sweep") {
		t.Fatal("fused-sweep section rendered without fused counters")
	}
}

// TestRenderCacheTiers: the snapshot text report summarizes the table
// cache per tier — hit traffic, hit rate, evictions, resident bytes —
// from the cache.* and diskcache.* counters, one row per tier that
// actually reported.
func TestRenderCacheTiers(t *testing.T) {
	s := New()
	s.Counter("cache.mem_hits").Add(90)
	s.Counter("cache.mem_misses").Add(10)
	s.Counter("cache.evictions").Add(3)
	s.Counter("cache.bytes").Add(4096)
	s.Counter("diskcache.hits").Add(7)
	s.Counter("diskcache.misses").Add(3)
	s.Counter("diskcache.bytes").Add(1406)
	s.Counter("search.memo_hits").Add(5) // must not produce a row
	var buf bytes.Buffer
	if err := s.Snapshot().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table cache tiers", "memory", "90.0%", "disk", "70.0%", "4096", "1406"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered text missing %q:\n%s", want, out)
		}
	}

	// The disk tier alone still renders; the memory row stays absent.
	one := New()
	one.Counter("diskcache.hits").Add(1)
	var buf2 bytes.Buffer
	if err := one.Snapshot().Render(&buf2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "table cache tiers") {
		t.Fatal("cache-tier section missing with only disk counters")
	}
	if strings.Contains(buf2.String(), "memory") {
		t.Fatal("memory row rendered without cache.* counters")
	}

	// No cache counters at all: no section.
	var empty bytes.Buffer
	if err := New().Snapshot().Render(&empty); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(empty.String(), "table cache tiers") {
		t.Fatal("cache-tier section rendered without cache counters")
	}
}
