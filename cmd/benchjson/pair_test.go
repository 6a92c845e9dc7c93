package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestPairBenchmarks: the i-th result of a benchmark in the old output
// pairs with its i-th result in the new one; a pair is won when the new
// sample is faster; both medians, of ns/op and of B/op, cover the
// paired samples only, so a surplus sample on one side is left out; and
// a benchmark measured on one side only is listed as such.
func TestPairBenchmarks(t *testing.T) {
	old := parseAll(t, "soctap",
		"BenchmarkA-2 1 100 ns/op 300 B/op", "BenchmarkB-2 1 50 ns/op",
		"BenchmarkA-2 1 110 ns/op 310 B/op", "BenchmarkB-2 1 40 ns/op",
		"BenchmarkA-2 1 90 ns/op 290 B/op", "BenchmarkGone-2 1 7 ns/op 5 B/op")
	new := parseAll(t, "soctap",
		"BenchmarkA-2 1 95 ns/op 200 B/op", "BenchmarkB-2 1 45 ns/op", "BenchmarkAdded-2 1 3 ns/op 4 B/op",
		"BenchmarkA-2 1 120 ns/op 220 B/op", "BenchmarkB-2 1 39 ns/op",
		"BenchmarkA-2 1 80 ns/op 210 B/op", "BenchmarkB-2 1 10 ns/op")
	got := pairBenchmarks(old, new)
	want := []pairRow{
		{bench: "soctap BenchmarkA", old: 100, new: 95, oldB: 300, newB: 210, pairs: 3, wins: 2},
		{bench: "soctap BenchmarkB", old: 45, new: 42, pairs: 2, wins: 2},
		{bench: "soctap BenchmarkAdded", new: 3, newB: 4, newOnly: true},
		{bench: "soctap BenchmarkGone", old: 7, oldB: 5, oldOnly: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs:\n got %+v\nwant %+v", got, want)
	}
	var out strings.Builder
	writePairs(&out, got)
	if !strings.Contains(out.String(), "2/3") || !strings.Contains(out.String(), "(new only)") ||
		!strings.Contains(out.String(), "300 -> 210") {
		t.Errorf("table lacks the win count, the one-sided row or the B/op medians:\n%s", out.String())
	}
}
