// Package baselines reimplements the prior-work comparison points of the
// paper's Tables 1 and 2 as documented proxy models. None of the three
// systems is open source, so each is reduced to its published operating
// principle (see DESIGN.md):
//
//   - [18] Sehgal, Iyengar & Chakrabarty, "SOC test planning using
//     virtual test access architectures" (TVLSI'04): decompression at
//     SOC level — few ATE channels expand onto a much wider virtual TAM;
//     test time is the uncompressed schedule on the virtual width, but
//     never better than the channel-bandwidth bound (stored bits / ATE
//     channels).
//   - [13] Wang, Chakrabarty & Wang, "SoC testing using LFSR reseeding,
//     and scan-slice-based TAM optimization and test scheduling"
//     (DATE'05): per-core linear decompressors; stored data ≈ care bits
//     inflated by an encoding-efficiency factor, delivered over the
//     core's TAM wires with the scan depth as a floor.
//   - [11] Iyengar & Chandra, "Unified SOC test approach based on test
//     data compression and TAM design" (IEE CDT'05): per-core
//     data compression with a fixed w = 4 ATE interface per core; the
//     TAM is built from 4-wire groups.
//
// Encoding efficiencies are fixed, documented constants chosen from the
// ranges those papers report; absolute numbers are therefore
// approximate, but the scaling behaviour (what improves with more
// channels, where the floors sit) follows each paper's model.
package baselines

import (
	"fmt"

	"soctap/internal/sched"
	"soctap/internal/soc"
	"soctap/internal/tam"
	"soctap/internal/wrapper"
)

// Encoding efficiency constants: stored bits = care bits / efficiency.
const (
	Eff18 = 0.90 // SOC-level linear decompressor, near-perfect reseeding
	Eff13 = 0.85 // per-core LFSR reseeding over scan slices
	Eff11 = 0.60 // run-length style per-core compression
)

// Expansion18 is the virtual-TAM expansion ratio of the [18] proxy: each
// ATE channel drives this many virtual TAM wires.
const Expansion18 = 4

// Result is a baseline evaluation outcome.
type Result struct {
	Name     string
	TestTime int64 // cycles
	Volume   int64 // stored ATE bits
}

// coreModel captures the per-core quantities every proxy needs.
type coreModel struct {
	core      *soc.Core
	patterns  int
	careBits  []int // per pattern
	totalCare int64
	bestSI    int // scan depth with every chain driven in parallel
	bestSO    int
	maxM      int
}

// buildModel reads the core's cubes in one pass of soc.Core.Cubes, so a
// core at or above the residency threshold streams.
func buildModel(c *soc.Core) (*coreModel, error) {
	src, err := c.Cubes()
	if err != nil {
		return nil, err
	}
	maxM := c.MaxWrapperChains()
	d, err := wrapper.New(c, maxM)
	if err != nil {
		return nil, err
	}
	m := &coreModel{
		core:     c,
		patterns: src.Len(),
		careBits: make([]int, 0, src.Len()),
		bestSI:   d.ScanIn,
		bestSO:   d.ScanOut,
		maxM:     maxM,
	}
	for cb, ok := src.Next(); ok; cb, ok = src.Next() {
		m.careBits = append(m.careBits, cb.CareCount())
		m.totalCare += int64(cb.CareCount())
	}
	return m, nil
}

// linearTime is the delivery time of a linear-decompressor core over the
// given number of ATE-facing wires: per pattern, the larger of the scan
// depth (all internal chains run in parallel behind the decompressor)
// and the seed-delivery time, plus capture and final shift-out.
func (m *coreModel) linearTime(wires int, eff float64) int64 {
	if wires < 1 {
		return 0
	}
	var t int64
	for _, cb := range m.careBits {
		stored := int64(float64(cb)/eff) + 1
		delivery := (stored + int64(wires) - 1) / int64(wires)
		if delivery < int64(m.bestSI) {
			delivery = int64(m.bestSI)
		}
		t += delivery
	}
	return t + int64(m.patterns) + int64(m.bestSO)
}

// storedVolume is the proxy's ATE storage in bits.
func (m *coreModel) storedVolume(eff float64) int64 {
	return int64(float64(m.totalCare)/eff) + int64(m.patterns)
}

func buildModels(s *soc.SOC) ([]*coreModel, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	models := make([]*coreModel, len(s.Cores))
	for i, c := range s.Cores {
		m, err := buildModel(c)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	return models, nil
}

// scheduleEven schedules the cores over even partitions of width w into
// 1..kmax buses and returns the best makespan.
func scheduleEven(n, w, kmax int, dur sched.Duration) (int64, error) {
	best := int64(-1)
	for k := 1; k <= kmax && k <= w; k++ {
		p, err := tam.Even(w, k)
		if err != nil {
			continue
		}
		sc, err := sched.Greedy(n, p, dur)
		if err != nil {
			continue
		}
		if best < 0 || sc.Makespan < best {
			best = sc.Makespan
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("baselines: no feasible schedule at width %d", w)
	}
	return best, nil
}

// VirtualTAM18 evaluates the [18] proxy at an ATE-channel budget: cores
// are scheduled uncompressed over a virtual TAM Expansion18 times wider
// than the channel count, and the result is floored by the channel
// bandwidth needed to deliver the compressed stream.
func VirtualTAM18(s *soc.SOC, ateChannels int) (Result, error) {
	if ateChannels < 1 {
		return Result{}, fmt.Errorf("baselines: ATE channels %d", ateChannels)
	}
	models, err := buildModels(s)
	if err != nil {
		return Result{}, err
	}
	wVirt := ateChannels * Expansion18

	dur := func(c, width int) int64 {
		m := models[c]
		mm := width
		if mm > m.maxM {
			mm = m.maxM
		}
		d, err := wrapper.New(m.core, mm)
		if err != nil {
			return 0
		}
		return d.TestTime()
	}
	makespan, err := scheduleEven(len(s.Cores), wVirt, len(s.Cores), dur)
	if err != nil {
		return Result{}, err
	}
	var volume int64
	for _, m := range models {
		volume += m.storedVolume(Eff18)
	}
	bandwidth := (volume + int64(ateChannels) - 1) / int64(ateChannels)
	if bandwidth > makespan {
		makespan = bandwidth
	}
	return Result{Name: "[18] virtual TAM", TestTime: makespan, Volume: volume}, nil
}

// LFSRReseeding13 evaluates the [13] proxy at a TAM-width budget: cores
// carry per-core linear decompressors fed over their bus wires, and the
// TAM is partitioned evenly with greedy scheduling.
func LFSRReseeding13(s *soc.SOC, wtam int) (Result, error) {
	if wtam < 1 {
		return Result{}, fmt.Errorf("baselines: W_TAM %d", wtam)
	}
	models, err := buildModels(s)
	if err != nil {
		return Result{}, err
	}
	dur := func(c, width int) int64 { return models[c].linearTime(width, Eff13) }
	makespan, err := scheduleEven(len(s.Cores), wtam, len(s.Cores), dur)
	if err != nil {
		return Result{}, err
	}
	var volume int64
	for _, m := range models {
		volume += m.storedVolume(Eff13)
	}
	return Result{Name: "[13] LFSR reseeding", TestTime: makespan, Volume: volume}, nil
}

// FixedWidth11 evaluates the [11] proxy: every core uses a fixed
// 4-channel compressed interface, so the TAM decomposes into
// floor(W/4) four-wire buses (at least one).
func FixedWidth11(s *soc.SOC, wtam int) (Result, error) {
	if wtam < 4 {
		return Result{}, fmt.Errorf("baselines: [11] needs at least 4 wires, got %d", wtam)
	}
	models, err := buildModels(s)
	if err != nil {
		return Result{}, err
	}
	k := wtam / 4
	widths := make([]int, k)
	for i := range widths {
		widths[i] = 4
	}
	dur := func(c, width int) int64 { return models[c].linearTime(4, Eff11) }
	sc, err := sched.Greedy(len(s.Cores), widths, dur)
	if err != nil {
		return Result{}, err
	}
	var volume int64
	for _, m := range models {
		volume += m.storedVolume(Eff11)
	}
	return Result{Name: "[11] fixed w=4 compression", TestTime: sc.Makespan, Volume: volume}, nil
}
