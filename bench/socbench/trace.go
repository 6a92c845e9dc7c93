package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer. Times are nanoseconds since the
// trace origin; parent indexes the span list (-1 for a root) and req
// ties every span of one op or request together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans and per-layer samples in memory until the run
// ends. A nil *tracer records nothing, so the untraced runs that give
// the end-to-end metrics pay for no tracing at all.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), samples: make(map[string][]float64)}
}

// ns converts a wall-clock instant to trace time.
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// begin opens a span now and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere — the
// children the program reports about itself (Result.TableSeconds, a
// response's elapsed_seconds) — clamped into its parent.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	if t == nil {
		return -1
	}
	s, e := t.ns(start), t.ns(end)
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		p := t.spans[parent]
		s = min(max(s, p.Start), p.End)
		e = min(max(e, s), p.End)
	}
	t.spans = append(t.spans, span{Name: name, Start: s, End: e, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// sample records one observation of a per-layer metric.
func (t *tracer) sample(metric string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[metric] = append(t.samples[metric], v)
	t.mu.Unlock()
}

// snapshot copies the spans and samples recorded so far.
func (t *tracer) snapshot() ([]span, map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	samples := make(map[string][]float64, len(t.samples))
	for k, v := range t.samples {
		samples[k] = append([]float64(nil), v...)
	}
	return append([]span(nil), t.spans...), samples
}

// writeJSON writes the spans to path.
func (t *tracer) writeJSON(path string) error {
	spans, _ := t.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// spanLayer maps span names to the layer their self time is charged to.
// Time inside a traced window that no span covers is bench.idle.
var spanLayer = map[string]string{
	"round":           "bench.harness",
	"parse":           "soc.parse",
	"optimize":        "core.optimize",
	"optimize.tables": "core.tables",
	"optimize.search": "core.search",
	"sweep":           "core.sweep",
	"verify":          "sim.verify",
	"http.request":    "serve.wait",
	"serve.job":       "serve.job",
}

// layers lists every layer a share is reported for, in table order.
var layers = []string{
	"core.tables", "core.search", "core.optimize", "core.sweep", "sim.verify",
	"soc.parse", "serve.job", "serve.wait", "bench.harness", "bench.idle",
}

// attribute charges every instant of the window [w0, w1) to the layers
// of the innermost spans running then, split evenly when several
// requests run at once, and to bench.idle when none does. The result
// sums to w1-w0 by construction, also under concurrency, where plain
// self times would count the same wall time once per request. Spans
// must nest: each child lies inside its parent.
func attribute(spans []span, w0, w1 int64) map[string]float64 {
	type event struct {
		at    int64
		start bool
		id    int
	}
	var evs []event
	for i, s := range spans {
		a, b := max(s.Start, w0), min(s.End, w1)
		if a >= b {
			continue
		}
		evs = append(evs, event{a, true, i}, event{b, false, i})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return !evs[i].start && evs[j].start // close before open at one instant
	})

	out := make(map[string]float64)
	active := make(map[int]bool)
	openChildren := make(map[int]int)
	leaves := make(map[int]bool)
	charge := func(from, to int64) {
		if to <= from {
			return
		}
		dt := float64(to-from) / 1e9
		if len(leaves) == 0 {
			out["bench.idle"] += dt
			return
		}
		for id := range leaves {
			out[layerOf(spans[id].Name)] += dt / float64(len(leaves))
		}
	}
	last := w0
	for _, ev := range evs {
		charge(last, ev.at)
		last = ev.at
		p := spans[ev.id].Parent
		if ev.start {
			active[ev.id] = true
			leaves[ev.id] = true
			if p >= 0 && active[p] {
				openChildren[p]++
				delete(leaves, p)
			}
			continue
		}
		delete(active, ev.id)
		delete(leaves, ev.id)
		if p >= 0 && active[p] {
			if openChildren[p]--; openChildren[p] == 0 {
				leaves[p] = true
			}
		}
	}
	charge(last, w1)
	return out
}

// layerOf names the layer of a span; unlisted names (probes) count as
// harness time.
func layerOf(name string) string {
	if l, ok := spanLayer[name]; ok {
		return l
	}
	return "bench.harness"
}

// writeWhereTimeGoes prints the layer shares of the traced window.
func writeWhereTimeGoes(w io.Writer, secs map[string]float64, wall float64) {
	fmt.Fprintf(w, "Where the time goes (%.3f s traced wall time):\n", wall)
	rows := append([]string(nil), layers...)
	sort.SliceStable(rows, func(i, j int) bool { return secs[rows[i]] > secs[rows[j]] })
	for _, l := range rows {
		fmt.Fprintf(w, "  %-14s %9.4f s  %6.2f%%\n", l, secs[l], 100*secs[l]/wall)
	}
}

// spanCost measures what recording one span costs, by recording n
// spans into a scratch tracer.
func spanCost(n int) time.Duration {
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", -1, int64(i)))
	}
	return time.Since(t0) / time.Duration(n)
}
