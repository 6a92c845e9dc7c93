package core

import (
	"testing"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// benchCore is a mid-size synthetic core with a few hundred care bits
// per cube (~320), the thin industrial-class load of the counting
// kernel.
func benchCore() *soc.Core {
	chains := make([]int, 64)
	for i := range chains {
		chains[i] = 100
	}
	return &soc.Core{
		Name: "bench", Inputs: 32, Outputs: 32,
		ScanChains: chains, // 6400 cells
		Patterns:   50, CareDensity: 0.05, Clustering: 0.7, DensityDecay: 0.3,
		Seed: 42,
	}
}

// BenchmarkTDCCostKernel measures the hot cost kernel alone — one
// counting pass over every cube's care refs — on a warm evaluator.
// Allocations per op should be zero: all counters are reused.
func BenchmarkTDCCostKernel(b *testing.B) {
	c := benchCore()
	ev, err := NewEvaluator(c)
	if err != nil {
		b.Fatal(err)
	}
	d, err := ev.Design(48)
	if err != nil {
		b.Fatal(err)
	}
	pt := ev.point(d) // builds the design's kernel tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.tdcCost(pt, true, Config{}, nil)
	}
}

// BenchmarkPointSetup measures what a new m costs before its pass: the
// wrapper design and the kernel's segment table, on a warm evaluator,
// alternating between two m values so every iteration prices a new
// design — on benchCore and on the industrial ckt-12 (1,600 scan
// chains, 856 input cells). The point table is written into recycled
// storage, so the allocations are wrapper.New's own.
func BenchmarkPointSetup(b *testing.B) {
	for _, c := range []*soc.Core{benchCore(), soc.MustIndustrialCore("ckt-12")} {
		b.Run(c.Name, func(b *testing.B) {
			ev, err := NewEvaluator(c)
			if err != nil {
				b.Fatal(err)
			}
			ms := [2]int{c.MaxWrapperChains() / 2, c.MaxWrapperChains()/2 + 1}
			for _, m := range ms {
				d, err := ev.Design(m)
				if err != nil {
					b.Fatal(err)
				}
				ev.point(d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := ev.Design(ms[i&1])
				if err != nil {
					b.Fatal(err)
				}
				ev.point(d)
			}
		})
	}
}

// BenchmarkTDCCostKernelDisabled measures the instrumented TDC path —
// counter Inc included — with no sink attached. Comparing it against
// BenchmarkTDCCostKernel bounds the disabled-telemetry overhead
// (nil-check only; 0 allocs/op is asserted by the telemetry-overhead
// gate in `make check`).
func BenchmarkTDCCostKernelDisabled(b *testing.B) {
	benchmarkTDCTelemetry(b, nil)
}

// BenchmarkTDCCostKernelTelemetry is the same path with a live sink, so
// the cost of an enabled counter (one atomic add per eval) is visible.
func BenchmarkTDCCostKernelTelemetry(b *testing.B) {
	benchmarkTDCTelemetry(b, telemetry.New())
}

func benchmarkTDCTelemetry(b *testing.B, sink *telemetry.Sink) {
	c := benchCore()
	ev, err := NewEvaluator(c)
	if err != nil {
		b.Fatal(err)
	}
	ev.attachTelemetry(sink)
	if _, err := ev.Design(48); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.TDC(48, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTableSerial measures one core's full lookup-table build
// with the engine forced sequential.
func BenchmarkBuildTableSerial(b *testing.B) {
	benchmarkBuildTable(b, 1)
}

// BenchmarkBuildTableParallel is the same build with one worker per
// CPU; on a multi-core machine the ratio to the serial benchmark is the
// table-build speedup.
func BenchmarkBuildTableParallel(b *testing.B) {
	benchmarkBuildTable(b, 0)
}

func benchmarkBuildTable(b *testing.B, workers int) {
	c := benchCore()
	if _, err := c.TestSet(); err != nil {
		b.Fatal(err)
	}
	opts := TableOptions{MaxWidth: 32, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTable(c, opts); err != nil {
			b.Fatal(err)
		}
	}
}
