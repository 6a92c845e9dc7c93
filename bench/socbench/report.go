package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count and statistic, printed after the unit
}

// percentName names a percentile for notes: p50, p90, p99 or max.
func percentName(p float64) string {
	if p >= 1 {
		return "max"
	}
	return "p" + strconv.FormatFloat(100*p, 'f', -1, 64)
}

// endToEnd derives the metrics a user of the system sees, from an
// untraced run. Times are at reference speed (see speed.go); each note
// gives the wall time measured and the reference kernel's median time.
func (r *runner) endToEnd() []metric {
	setupF, setupK := atRef(r.setupKernelMs), median(r.setupKernelMs)
	opF, opK := atRef(r.timedKernelMs), median(r.timedKernelMs)
	setup := median(r.setupS)
	n := len(r.opsMs)
	q1, p50, q3 := quartiles(r.opsMs)
	tail, ok := percentile(r.opsMs, r.tailP)
	tailNote := fmt.Sprintf("%s n=%d, wall %.4g ms", percentName(r.tailP), n, tail)
	if !ok {
		tailNote += fmt.Sprintf(" (fewer than %d samples beyond)", minBeyond)
	}
	return []metric{
		{"setup_s", setup * setupF, "s", fmt.Sprintf("median of %d set-ups, wall %.4g s, kernel %.4g ms", len(r.setupS), setup, setupK)},
		{"op_p50_ms", p50 * opF, "ms", fmt.Sprintf("p50 n=%d, wall %.4g ms (quartiles %.4g, %.4g), kernel %.4g ms", n, p50, q1, q3, opK)},
		{"op_tail_ms", tail * opF, "ms", tailNote},
		{"heap_mib", float64(r.heapBytes) / (1 << 20), "MiB", "live heap after the timed phase"},
	}
}

// perLayer derives the per-layer metrics of a traced run; shares holds
// the seconds of the traced window charged to each layer.
func (r *runner) perLayer(shares map[string]float64) []metric {
	spans, samples := r.tr.snapshot()
	w0, w1 := r.tr.ns(r.t0), r.tr.ns(r.t1)
	wall := float64(w1-w0) / 1e9

	med := func(name, key, unit string) metric {
		xs := samples[key]
		return metric{name, median(xs), unit, fmt.Sprintf("p50 n=%d", len(xs))}
	}
	rate := func(name, num, den, unit string, scale float64) metric {
		d := sum(samples[den])
		v := 0.0
		if d > 0 {
			v = sum(samples[num]) / d * scale
		}
		return metric{name, v, unit, fmt.Sprintf("n=%d", len(samples[den]))}
	}
	count := func(name, counter string) metric {
		return metric{name, float64(r.counterDelta[counter]), "count", "timed phase"}
	}
	share := func(layer string) metric {
		return metric{layer + ".share", shares[layer] / wall, "ratio", "of traced wall time"}
	}

	memHits, misses := r.counterDelta["cache.mem_hits"], r.counterDelta["cache.mem_misses"]
	hitRatio := 0.0
	if memHits+misses > 0 {
		hitRatio = float64(memHits+r.counterDelta["diskcache.hits"]) / float64(memHits+misses)
	}
	sched := r.tel.Histogram("sched.schedule_seconds")
	schedUs := 0.0
	if sched.Count() > 0 {
		schedUs = float64(sched.Sum()) / float64(sched.Count()) / 1e3
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ops := max(len(r.opsMs), 1)
	inWindow := 0
	for _, s := range spans {
		if s.Start >= w0 && s.End <= w1 {
			inWindow++
		}
	}
	overhead := float64(inWindow) * float64(spanCost(20000)) / 1e9 / wall * 100

	out := []metric{
		count("core.tables.built", "tables.built"),
		med("core.tables.build_ms_p50", "core.tables.build_ms", "ms"),
		share("core.tables"),
		rate("core.sweep.points_per_s", "core.sweep_points", "core.sweep_s", "1/s", 1),
		share("core.sweep"),
		med("core.search.ms_p50", "core.search_ms", "ms"),
		share("core.search"),
		share("core.optimize"),
		{"sched.schedule_us_mean", schedUs, "us", fmt.Sprintf("mean n=%d", sched.Count())},
		count("core.cache.mem_hits", "cache.mem_hits"),
		count("core.cache.disk_hits", "diskcache.hits"),
		{"core.cache.hit_ratio", hitRatio, "ratio", fmt.Sprintf("of %d gets", memHits+misses)},
		med("core.cache.get_us_p50", "core.cache.get_us", "us"),
		med("core.cache.disk_load_us_p50", "core.cache.disk_load_us", "us"),
		med("sim.verify_ms_p50", "sim.verify_ms", "ms"),
		rate("sim.verify_mbit_per_s", "sim.verify_bits", "sim.verify_s", "Mbit/s", 1e-6),
		share("sim.verify"),
		med("soc.parse_us_p50", "soc.parse_us", "us"),
		share("soc.parse"),
		med("serve.job_ms_p50", "serve.job_ms", "ms"),
		med("serve.wait_ms_p50", "serve.wait_ms", "ms"),
		med("serve.cold_ms_p50", "serve.cold_ms", "ms"),
		med("serve.encode_us_p50", "serve.encode_us", "us"),
		share("serve.job"),
		share("serve.wait"),
		{"gen.completed_rps", float64(len(r.opsMs)) / wall, "1/s", fmt.Sprintf("n=%d", len(r.opsMs))},
		{"go.alloc_mib_per_op", float64(r.allocBytes) / (1 << 20) / float64(ops), "MiB", fmt.Sprintf("n=%d", ops)},
		{"go.gc_cpu_frac", ms.GCCPUFraction, "ratio", "whole run"},
		{"trace.overhead_pct", overhead, "%", fmt.Sprintf("%d spans", inWindow)},
		share("bench.harness"),
		share("bench.idle"),
	}
	return out
}

// report prints the run's metrics as `name value unit` lines, the
// run's facts, and the closing JSON object.
func (r *runner) report(w io.Writer) error {
	var ms []metric
	var shares map[string]float64
	if r.tr == nil {
		ms = r.endToEnd()
	} else {
		spans, _ := r.tr.snapshot()
		shares = attribute(spans, r.tr.ns(r.t0), r.tr.ns(r.t1))
		ms = r.perLayer(shares)
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g gomaxprocs %d\n", r.workload, r.seed, r.seconds.Seconds(), runtime.GOMAXPROCS(0))
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, m.note)
	}
	if len(r.lateMs) > 0 {
		late, _ := percentile(r.lateMs, 0.99)
		fmt.Fprintf(w, "gen.late_ms_p99 %g ms n=%d (open loop; run invalid past %d ms)\n", late, len(r.lateMs), maxLateMs)
	}
	if len(r.warmMs) > 0 {
		p90, _ := percentile(r.warmMs, 0.9)
		fmt.Fprintf(w, "warm_request_p50_ms %g ms n=%d (from due time, during the cold uploads)\n", median(r.warmMs), len(r.warmMs))
		fmt.Fprintf(w, "warm_request_p90_ms %g ms n=%d\n", p90, len(r.warmMs))
	}
	if shares != nil {
		writeWhereTimeGoes(w, shares, r.t1.Sub(r.t0).Seconds())
	}
	fmt.Fprintf(w, "fail_ratio %g ratio failed=%d attempted=%d\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	fmt.Fprintf(w, "golden_digest %s (%d correctness lines)\n", r.goldenDigest(), len(r.golden))
	fmt.Fprintf(w, "timed_s %g s\n", r.t1.Sub(r.t0).Seconds())

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, make(map[string]value)}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
