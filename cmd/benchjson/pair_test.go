package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestPairBenchmarks: the i-th result of a benchmark in the old output
// pairs with its i-th result in the new one; a pair is won when the new
// sample is faster; both medians cover the paired samples only, so a
// surplus sample on one side is left out; and a benchmark measured on
// one side only is listed as such.
func TestPairBenchmarks(t *testing.T) {
	old := parseAll(t, "soctap",
		"BenchmarkA-2 1 100 ns/op", "BenchmarkB-2 1 50 ns/op",
		"BenchmarkA-2 1 110 ns/op", "BenchmarkB-2 1 40 ns/op",
		"BenchmarkA-2 1 90 ns/op", "BenchmarkGone-2 1 7 ns/op")
	new := parseAll(t, "soctap",
		"BenchmarkA-2 1 95 ns/op", "BenchmarkB-2 1 45 ns/op", "BenchmarkAdded-2 1 3 ns/op",
		"BenchmarkA-2 1 120 ns/op", "BenchmarkB-2 1 39 ns/op",
		"BenchmarkA-2 1 80 ns/op", "BenchmarkB-2 1 10 ns/op")
	got := pairBenchmarks(old, new)
	want := []pairRow{
		{bench: "soctap BenchmarkA", old: 100, new: 95, pairs: 3, wins: 2},
		{bench: "soctap BenchmarkB", old: 45, new: 42, pairs: 2, wins: 2},
		{bench: "soctap BenchmarkAdded", new: 3, newOnly: true},
		{bench: "soctap BenchmarkGone", old: 7, oldOnly: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs:\n got %+v\nwant %+v", got, want)
	}
	var out strings.Builder
	writePairs(&out, got)
	if !strings.Contains(out.String(), "2/3") || !strings.Contains(out.String(), "(new only)") {
		t.Errorf("table lacks the win count or the one-sided row:\n%s", out.String())
	}
}
