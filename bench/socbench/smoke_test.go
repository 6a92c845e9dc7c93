package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// smoke test holds the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smokeRun runs one workload at -short scale and returns its output
// lines and closing JSON object.
func smokeRun(t *testing.T, workload, trace string) ([]string, map[string]any) {
	t.Helper()
	var out, errs bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--short"}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("%s --trace %s: exit %d\n%s%s", workload, trace, code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if res["correct"] != true || res["failed"] != 0.0 {
		t.Fatalf("%s: result %v", workload, res)
	}
	return lines, res
}

// findLine returns the output line reporting name.
func findLine(lines []string, name string) string {
	for _, l := range lines {
		if strings.HasPrefix(l, name+" ") {
			return l
		}
	}
	return ""
}

// checkMetric asserts that a metric is printed as `name value unit`
// and carried with that unit in the result object.
func checkMetric(t *testing.T, workload string, lines []string, res map[string]any, name, unit string) {
	t.Helper()
	f := strings.Fields(findLine(lines, name))
	if len(f) < 3 || f[2] != unit {
		t.Errorf("%s: metric %s not printed as `name value %s`: %q", workload, name, unit, findLine(lines, name))
		return
	}
	if _, err := strconv.ParseFloat(f[1], 64); err != nil {
		t.Errorf("%s: metric %s value %q: %v", workload, name, f[1], err)
	}
	m, _ := res["metrics"].(map[string]any)[name].(map[string]any)
	if m["unit"] != unit {
		t.Errorf("%s: result object carries %s as %v, want unit %s", workload, name, m, unit)
	}
}

// TestSmoke runs every workload of BENCHMARK.json at -short scale, once
// untraced and once traced with the same seed: each prints every metric
// the file names with its unit, passes its checks, and both runs report
// the same correctness outputs.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		lines, res := smokeRun(t, w.Name, "0")
		for _, m := range spec.EndToEnd {
			checkMetric(t, w.Name, lines, res, m.Name, m.Unit)
		}
		traced, tres := smokeRun(t, w.Name, "1")
		shares := 0.0
		for _, m := range spec.PerLayer {
			checkMetric(t, w.Name, traced, tres, m.Name, m.Unit)
			if strings.HasSuffix(m.Name, ".share") {
				shares += tres["metrics"].(map[string]any)[m.Name].(map[string]any)["value"].(float64)
			}
		}
		if math.Abs(shares-1) > 0.05 {
			t.Errorf("%s: layer shares sum to %.4f, want 1 ± 0.05", w.Name, shares)
		}
		if findLine(traced, "trace.overhead_pct") == "" {
			t.Errorf("%s: traced run does not report trace.overhead_pct", w.Name)
		}
		if a, b := findLine(lines, "golden_digest"), findLine(traced, "golden_digest"); a == "" || a != b {
			t.Errorf("%s: correctness outputs differ between two runs of seed 3: %q vs %q", w.Name, a, b)
		}
	}
}
