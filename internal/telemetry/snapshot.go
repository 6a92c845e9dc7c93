package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"soctap/internal/report"
)

// Snapshot is a point-in-time copy of a sink: run metadata, counters
// (exact, deterministic for any worker count), gauges and histogram
// distributions (runtime observations, not), and the span tree. It
// renders as deterministic JSON (map keys sorted by encoding/json,
// spans in creation order), as human text (Render), and as OpenMetrics
// exposition text (WriteOpenMetrics).
type Snapshot struct {
	TotalSeconds float64                  `json:"total_seconds"`
	Meta         Meta                     `json:"meta"`
	Counters     map[string]int64         `json:"counters"`
	Gauges       map[string]int64         `json:"gauges,omitempty"`
	Histograms   map[string]HistogramSnap `json:"histograms,omitempty"`
	// EventsDropped counts bus events dropped against slow subscribers
	// (a scheduling accident, excluded from the determinism guarantee
	// and from Counters; see bus.go).
	EventsDropped int64      `json:"events_dropped,omitempty"`
	Spans         []SpanSnap `json:"spans,omitempty"`
}

// SpanSnap is one node of the snapshot's phase tree.
type SpanSnap struct {
	Name     string     `json:"name"`
	Seconds  float64    `json:"seconds"`
	Count    int64      `json:"count"`
	Children []SpanSnap `json:"children,omitempty"`
}

// HistogramSnap is the snapshot form of one latency histogram: the
// deterministic observation count, then the wall-clock distribution —
// total and p50/p90/p99 estimates in seconds, and the non-empty log2
// buckets (bucket b spans [2^(b-1), 2^b) nanoseconds) in ascending
// order.
type HistogramSnap struct {
	Count      int64             `json:"count"`
	SumSeconds float64           `json:"sum_seconds"`
	P50Seconds float64           `json:"p50_seconds"`
	P90Seconds float64           `json:"p90_seconds"`
	P99Seconds float64           `json:"p99_seconds"`
	Buckets    []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one non-empty log2 bucket of a HistogramSnap.
type HistogramBucket struct {
	Log2  int   `json:"log2"`
	Count int64 `json:"count"`
}

// Snapshot copies the sink's current state. On a nil sink it returns an
// empty snapshot, so report paths need no enabled-check either.
func (s *Sink) Snapshot() *Snapshot {
	sn := &Snapshot{Counters: map[string]int64{}}
	if s == nil {
		return sn
	}
	wall := time.Since(s.start)
	sn.TotalSeconds = wall.Seconds()
	sn.Meta.WallNs = wall.Nanoseconds()
	sn.Meta.GoVersion, sn.Meta.VCSRevision = BuildInfo()
	sn.EventsDropped = s.bus.dropped.Load()
	s.mu.Lock()
	for name, c := range s.counters {
		sn.Counters[name] = c.Value()
	}
	if len(s.gauges) > 0 {
		sn.Gauges = make(map[string]int64, len(s.gauges))
		for name, g := range s.gauges {
			sn.Gauges[name] = g.Value()
		}
	}
	if len(s.histograms) > 0 {
		sn.Histograms = make(map[string]HistogramSnap, len(s.histograms))
		for name, h := range s.histograms {
			sn.Histograms[name] = h.snap()
		}
	}
	s.mu.Unlock()
	sn.Spans = snapSpans(&s.root)
	return sn
}

// snapSpans copies a span's children (creation order) recursively.
func snapSpans(sp *Span) []SpanSnap {
	sp.mu.Lock()
	kids := append([]*Span(nil), sp.children...)
	sp.mu.Unlock()
	if len(kids) == 0 {
		return nil
	}
	out := make([]SpanSnap, len(kids))
	for i, c := range kids {
		out[i] = SpanSnap{
			Name:     c.name,
			Seconds:  time.Duration(c.elapsed.Load()).Seconds(),
			Count:    c.count.Load(),
			Children: snapSpans(c),
		}
	}
	return out
}

// pruneRow is one line of the pruning-rate table: how many (w, m)
// candidates of one core's sweep were skipped by the lower bound.
type pruneRow struct {
	core   string
	pruned int64
	evals  int64
	rate   float64
}

// pruningRates extracts per-core pruning effectiveness from the
// `prune.<core>.pruned` / `prune.<core>.evals` counter pairs, plus an
// overall row when more than one core reported. Rows are sorted by
// core name; the rate is pruned / (pruned + evaluated) — the fraction
// of sweep candidates that never reached the cost kernel.
func (sn *Snapshot) pruningRates() []pruneRow {
	per := map[string]*pruneRow{}
	for name, v := range sn.Counters {
		rest, ok := strings.CutPrefix(name, "prune.")
		if !ok {
			continue
		}
		var field *int64
		var core string
		if c, ok2 := strings.CutSuffix(rest, ".pruned"); ok2 {
			core = c
		} else if c, ok2 := strings.CutSuffix(rest, ".evals"); ok2 {
			core = c
		} else {
			continue
		}
		r := per[core]
		if r == nil {
			r = &pruneRow{core: core}
			per[core] = r
		}
		if strings.HasSuffix(name, ".pruned") {
			field = &r.pruned
		} else {
			field = &r.evals
		}
		*field = v
	}
	if len(per) == 0 {
		return nil
	}
	rows := make([]pruneRow, 0, len(per)+1)
	for _, r := range per {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].core < rows[j].core })
	if len(rows) > 1 {
		var all pruneRow
		all.core = "(all cores)"
		for _, r := range rows {
			all.pruned += r.pruned
			all.evals += r.evals
		}
		rows = append(rows, all)
	}
	for i := range rows {
		if total := rows[i].pruned + rows[i].evals; total > 0 {
			rows[i].rate = float64(rows[i].pruned) / float64(total)
		}
	}
	return rows
}

// fusedRow is one line of the pass-amortization table: how many fused
// passes one core's streaming sweep ran, how many (w, m) points they
// carried, and how many window loads that cost.
type fusedRow struct {
	core   string
	passes int64
	points int64
	loads  int64
}

// fusedAmortization extracts per-core fused-sweep effectiveness from
// the `fused.<core>.passes` / `.points` / `.window_loads` counter
// triples, plus an overall row when more than one core reported. Rows
// sort by core name. points/pass is the fan-out each streamed window
// was shared across — the factor by which fusion amortizes source
// traversal versus one pass per point.
func (sn *Snapshot) fusedAmortization() []fusedRow {
	per := map[string]*fusedRow{}
	for name, v := range sn.Counters {
		rest, ok := strings.CutPrefix(name, "fused.")
		if !ok {
			continue
		}
		var core string
		var field func(*fusedRow) *int64
		switch {
		case strings.HasSuffix(rest, ".passes"):
			core = strings.TrimSuffix(rest, ".passes")
			field = func(r *fusedRow) *int64 { return &r.passes }
		case strings.HasSuffix(rest, ".points"):
			core = strings.TrimSuffix(rest, ".points")
			field = func(r *fusedRow) *int64 { return &r.points }
		case strings.HasSuffix(rest, ".window_loads"):
			core = strings.TrimSuffix(rest, ".window_loads")
			field = func(r *fusedRow) *int64 { return &r.loads }
		default:
			continue
		}
		r := per[core]
		if r == nil {
			r = &fusedRow{core: core}
			per[core] = r
		}
		*field(r) = v
	}
	if len(per) == 0 {
		return nil
	}
	rows := make([]fusedRow, 0, len(per)+1)
	for _, r := range per {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].core < rows[j].core })
	if len(rows) > 1 {
		all := fusedRow{core: "(all cores)"}
		for _, r := range rows {
			all.passes += r.passes
			all.points += r.points
			all.loads += r.loads
		}
		rows = append(rows, all)
	}
	return rows
}

// cacheRow is one line of the cache-tier table: hit/miss/eviction
// traffic and resident bytes of one tier of the table cache.
type cacheRow struct {
	tier      string
	hits      int64
	misses    int64
	evictions int64
	bytes     int64
}

// cacheTiers extracts the table-cache tier summary from the `cache.*`
// (in-memory tier) and `diskcache.*` (on-disk tier) counters. A tier
// appears only when at least one of its counters was registered, so
// runs without a cache render no table at all.
func (sn *Snapshot) cacheTiers() []cacheRow {
	rows := make([]cacheRow, 0, 2)
	add := func(tier, prefix, hits, misses string) {
		r := cacheRow{tier: tier}
		seen := false
		for name, v := range sn.Counters {
			rest, ok := strings.CutPrefix(name, prefix)
			if !ok {
				continue
			}
			seen = true
			switch rest {
			case hits:
				r.hits = v
			case misses:
				r.misses = v
			case "evictions":
				r.evictions = v
			case "bytes":
				r.bytes = v
			}
		}
		if seen {
			rows = append(rows, r)
		}
	}
	add("memory", "cache.", "mem_hits", "mem_misses")
	add("disk", "diskcache.", "hits", "misses")
	return rows
}

// WriteJSON writes the snapshot as indented JSON. encoding/json sorts
// map keys, so the byte layout is stable run to run (timing values
// aside) — diffable and machine-consumable.
func (sn *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(sn, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Render writes the snapshot as human text in the repository's report
// style: the span tree with per-phase bars scaled to the longest phase,
// then counters, gauges and histograms as fixed-width tables.
func (sn *Snapshot) Render(w io.Writer) error {
	const barWidth = 28
	var maxSec float64
	var walk func([]SpanSnap)
	walk = func(spans []SpanSnap) {
		for _, sp := range spans {
			if sp.Seconds > maxSec {
				maxSec = sp.Seconds
			}
			walk(sp.Children)
		}
	}
	walk(sn.Spans)

	spanTab := report.NewTable(
		fmt.Sprintf("phase spans (%.3fs total)", sn.TotalSeconds),
		"phase", "seconds", "count", "")
	var dfs func(spans []SpanSnap, depth int)
	dfs = func(spans []SpanSnap, depth int) {
		for _, sp := range spans {
			bar := ""
			if maxSec > 0 {
				bar = strings.Repeat("#", int(sp.Seconds/maxSec*barWidth+0.5))
			}
			spanTab.Add(strings.Repeat("  ", depth)+sp.Name,
				fmt.Sprintf("%.3f", sp.Seconds), fmt.Sprint(sp.Count), bar)
			dfs(sp.Children, depth+1)
		}
	}
	dfs(sn.Spans, 0)
	if len(sn.Spans) > 0 {
		if err := spanTab.Render(w); err != nil {
			return err
		}
	}

	if len(sn.Counters) > 0 {
		names := make([]string, 0, len(sn.Counters))
		for n := range sn.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		tab := report.NewTable("\ncounters", "counter", "value")
		for _, n := range names {
			tab.Add(n, fmt.Sprint(sn.Counters[n]))
		}
		if err := tab.Render(w); err != nil {
			return err
		}
	}

	if rows := sn.pruningRates(); len(rows) > 0 {
		tab := report.NewTable("\nsweep pruning (candidates skipped by lower bound)",
			"core", "pruned", "evaluated", "rate")
		for _, r := range rows {
			tab.Add(r.core, fmt.Sprint(r.pruned), fmt.Sprint(r.evals),
				fmt.Sprintf("%.1f%%", r.rate*100))
		}
		if err := tab.Render(w); err != nil {
			return err
		}
	}

	if rows := sn.fusedAmortization(); len(rows) > 0 {
		tab := report.NewTable("\nfused sweep (points sharing each streamed pass)",
			"core", "passes", "points", "points/pass", "window loads")
		for _, r := range rows {
			perPass := "-"
			if r.passes > 0 {
				perPass = fmt.Sprintf("%.1f", float64(r.points)/float64(r.passes))
			}
			tab.Add(r.core, fmt.Sprint(r.passes), fmt.Sprint(r.points),
				perPass, fmt.Sprint(r.loads))
		}
		if err := tab.Render(w); err != nil {
			return err
		}
	}

	if rows := sn.cacheTiers(); len(rows) > 0 {
		tab := report.NewTable("\ntable cache tiers",
			"tier", "hits", "misses", "hit rate", "evictions", "resident bytes")
		for _, r := range rows {
			rate := "-"
			if total := r.hits + r.misses; total > 0 {
				rate = fmt.Sprintf("%.1f%%", float64(r.hits)/float64(total)*100)
			}
			tab.Add(r.tier, fmt.Sprint(r.hits), fmt.Sprint(r.misses), rate,
				fmt.Sprint(r.evictions), fmt.Sprint(r.bytes))
		}
		if err := tab.Render(w); err != nil {
			return err
		}
	}

	if len(sn.Gauges) > 0 {
		names := make([]string, 0, len(sn.Gauges))
		for n := range sn.Gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		tab := report.NewTable("\ngauges (high-water marks, not deterministic)", "gauge", "max")
		for _, n := range names {
			tab.Add(n, fmt.Sprint(sn.Gauges[n]))
		}
		if err := tab.Render(w); err != nil {
			return err
		}
	}

	if len(sn.Histograms) > 0 {
		names := make([]string, 0, len(sn.Histograms))
		for n := range sn.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		tab := report.NewTable("\nlatency histograms (counts deterministic, quantiles wall clock)",
			"histogram", "count", "p50", "p90", "p99", "sum")
		for _, n := range names {
			h := sn.Histograms[n]
			tab.Add(n, fmt.Sprint(h.Count),
				fmtSeconds(h.P50Seconds), fmtSeconds(h.P90Seconds),
				fmtSeconds(h.P99Seconds), fmtSeconds(h.SumSeconds))
		}
		if err := tab.Render(w); err != nil {
			return err
		}
	}

	return nil
}

// fmtSeconds renders a seconds value compactly across the µs-to-minutes
// range the histograms span.
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 0.001:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
