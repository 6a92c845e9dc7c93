package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// tableDur builds a Duration from a per-core base cost, modeling time
// inversely proportional to width.
func tableDur(base []int64) Duration {
	return func(core, width int) int64 {
		if width <= 0 {
			return 0
		}
		return (base[core] + int64(width) - 1) / int64(width)
	}
}

func TestGreedyBasic(t *testing.T) {
	base := []int64{100, 80, 60, 40}
	s, err := Greedy(4, []int{2, 2}, tableDur(base))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Items) != 4 {
		t.Fatalf("%d items", len(s.Items))
	}
	// Durations at width 2: 50, 40, 30, 20. LPT on two machines:
	// bus A: 50+20=70, bus B: 40+30=70. Makespan 70.
	if s.Makespan != 70 {
		t.Errorf("makespan = %d, want 70", s.Makespan)
	}
}

func TestGreedyBeatsOrInOrderNeverBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(10) + 2
		base := make([]int64, n)
		for i := range base {
			base[i] = int64(rng.Intn(1000) + 10)
		}
		widths := []int{rng.Intn(8) + 1, rng.Intn(8) + 1, rng.Intn(8) + 1}
		g, err := Greedy(n, widths, tableDur(base))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		o, err := InOrder(n, widths, tableDur(base))
		if err != nil {
			t.Fatal(err)
		}
		// LPT is not universally better but across random trials it must
		// win on average; count wins instead of asserting per-trial.
		_ = o
	}
	// Aggregate comparison on a fixed batch.
	var gTotal, oTotal int64
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(12) + 3
		base := make([]int64, n)
		for i := range base {
			base[i] = int64(rng.Intn(2000) + 10)
		}
		widths := []int{4, 3, 2}
		g, _ := Greedy(n, widths, tableDur(base))
		o, _ := InOrder(n, widths, tableDur(base))
		gTotal += g.Makespan
		oTotal += o.Makespan
	}
	if gTotal > oTotal {
		t.Errorf("longest-first (%d) worse in aggregate than in-order (%d)", gTotal, oTotal)
	}
}

func TestGreedyInfeasible(t *testing.T) {
	dur := func(core, width int) int64 { return 0 }
	if _, err := Greedy(1, []int{4}, dur); err == nil {
		t.Error("fully infeasible core accepted")
	}
}

func TestGreedyPartialFeasibility(t *testing.T) {
	// Core 0 only runs on the wide bus.
	dur := func(core, width int) int64 {
		if core == 0 && width < 4 {
			return 0
		}
		return 10
	}
	s, err := Greedy(2, []int{4, 1}, dur)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range s.Items {
		if it.Core == 0 && s.Widths[it.Bus] < 4 {
			t.Error("core 0 placed on infeasible bus")
		}
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	s := &Schedule{
		Widths:   []int{1},
		Items:    []Item{{Core: 0, Bus: 0, Start: 0, Duration: 10}, {Core: 1, Bus: 0, Start: 5, Duration: 10}},
		BusTimes: []int64{15},
		Makespan: 15,
	}
	if err := s.Validate(); err == nil {
		t.Error("overlapping schedule validated")
	}
	s2 := &Schedule{
		Widths:   []int{1},
		Items:    []Item{{Core: 0, Bus: 0, Start: 0, Duration: 10}},
		BusTimes: []int64{11},
		Makespan: 11,
	}
	if err := s2.Validate(); err == nil {
		t.Error("bus-time mismatch validated")
	}
	s3 := &Schedule{
		Widths:   []int{1},
		Items:    []Item{{Core: 0, Bus: 0, Start: 0, Duration: 10}},
		BusTimes: []int64{10},
		Makespan: 12,
	}
	if err := s3.Validate(); err == nil {
		t.Error("makespan mismatch validated")
	}
}

// TestValidateRejectsBusTimeCount: a schedule whose bus times do not
// match its buses one for one is an error, not an index panic.
func TestValidateRejectsBusTimeCount(t *testing.T) {
	for _, widths := range [][]int{{4, 4, 4}, {4}} {
		s := &Schedule{
			Widths:   widths,
			Items:    []Item{{Core: 0, Bus: 0, Start: 0, Duration: 10}},
			BusTimes: []int64{10, 0},
			Makespan: 10,
		}
		if err := s.Validate(); err == nil {
			t.Errorf("%d bus times for %d buses validated", len(s.BusTimes), len(widths))
		}
	}
}

func TestGreedyPowerRespectsCeiling(t *testing.T) {
	base := []int64{100, 100, 100, 100}
	power := []int{5, 5, 5, 5}
	// Ceiling 10 allows at most two concurrent cores even though four
	// buses are available.
	s, err := GreedyPower(4, []int{2, 2, 2, 2}, tableDur(base), power, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	checkPowerCeiling(t, s, power, 10)
	// With only two concurrent cores of 50 cycles each, makespan is 100.
	if s.Makespan != 100 {
		t.Errorf("makespan = %d, want 100", s.Makespan)
	}
	// Unconstrained: all four run in parallel.
	u, err := GreedyPower(4, []int{2, 2, 2, 2}, tableDur(base), power, 100)
	if err != nil {
		t.Fatal(err)
	}
	if u.Makespan != 50 {
		t.Errorf("unconstrained makespan = %d, want 50", u.Makespan)
	}
}

func checkPowerCeiling(t *testing.T, s *Schedule, power []int, maxPower int) {
	t.Helper()
	for _, it := range s.Items {
		sum := 0
		for _, other := range s.Items {
			if other.Start <= it.Start && it.Start < other.End() {
				sum += power[other.Core]
			}
		}
		if sum > maxPower {
			t.Errorf("power %d exceeds ceiling %d at t=%d", sum, maxPower, it.Start)
		}
	}
}

func TestGreedyPowerValidation(t *testing.T) {
	if _, err := GreedyPower(2, []int{1}, tableDur([]int64{10, 10}), []int{1}, 5); err == nil {
		t.Error("power-count mismatch accepted")
	}
	if _, err := GreedyPower(1, []int{1}, tableDur([]int64{10}), []int{9}, 5); err == nil {
		t.Error("core hotter than ceiling accepted")
	}
}

// Property: schedules from all three algorithms validate, include every
// core exactly once, and power schedules respect the ceiling.
func TestQuickSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		base := make([]int64, n)
		power := make([]int, n)
		for i := range base {
			base[i] = int64(rng.Intn(500) + 1)
			power[i] = rng.Intn(8) + 1
		}
		k := rng.Intn(4) + 1
		widths := make([]int, k)
		for i := range widths {
			widths[i] = rng.Intn(8) + 1
		}
		maxPower := 8 + rng.Intn(16)

		check := func(s *Schedule, err error) bool {
			if err != nil || s.Validate() != nil {
				return false
			}
			seen := make(map[int]bool)
			for _, it := range s.Items {
				if seen[it.Core] {
					return false
				}
				seen[it.Core] = true
			}
			return len(seen) == n
		}
		g, gerr := Greedy(n, widths, tableDur(base))
		o, oerr := InOrder(n, widths, tableDur(base))
		p, perr := GreedyPower(n, widths, tableDur(base), power, maxPower)
		if !check(g, gerr) || !check(o, oerr) || !check(p, perr) {
			return false
		}
		// (Note: the power-constrained greedy may occasionally beat the
		// unconstrained greedy — both are heuristics and the constraint
		// can steer placement luckily — so no ordering is asserted
		// between their makespans.)
		for _, it := range p.Items {
			sum := 0
			for _, other := range p.Items {
				if other.Start <= it.Start && it.Start < other.End() {
					sum += power[other.Core]
				}
			}
			if sum > maxPower {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the Planner methods over dur's Matrix are drop-in
// equivalents of the package functions over dur — same schedules item
// for item, and the makespan-only paths agree with the full ones —
// across random instances and with the same Planner reused (scratch
// reuse must not leak state between calls).
func TestPlannerMatchesPackageFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pl Planner
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(12) + 1
		base := make([]int64, n)
		for i := range base {
			base[i] = int64(rng.Intn(3000) + 1)
		}
		k := rng.Intn(5) + 1
		widths := make([]int, k)
		for i := range widths {
			widths[i] = rng.Intn(8) + 1
		}
		dur := tableDur(base)
		m, err := tabulate(n, widths, dur)
		if err != nil {
			t.Fatal(err)
		}

		g, gerr := Greedy(n, widths, dur)
		pg, pgerr := pl.Greedy(m, widths)
		if (gerr == nil) != (pgerr == nil) {
			t.Fatalf("trial %d: Greedy err %v vs Planner err %v", trial, gerr, pgerr)
		}
		if gerr == nil && !reflect.DeepEqual(g, pg) {
			t.Fatalf("trial %d: Planner.Greedy diverged", trial)
		}
		mk, mkerr := pl.GreedyMakespan(m, widths)
		if (gerr == nil) != (mkerr == nil) {
			t.Fatalf("trial %d: GreedyMakespan err %v vs %v", trial, mkerr, gerr)
		}
		if gerr == nil && mk != g.Makespan {
			t.Fatalf("trial %d: GreedyMakespan = %d, schedule says %d", trial, mk, g.Makespan)
		}

		o, oerr := InOrder(n, widths, dur)
		po, poerr := pl.InOrder(m, widths)
		if (oerr == nil) != (poerr == nil) {
			t.Fatalf("trial %d: InOrder err %v vs Planner err %v", trial, oerr, poerr)
		}
		if oerr == nil && !reflect.DeepEqual(o, po) {
			t.Fatalf("trial %d: Planner.InOrder diverged", trial)
		}
		omk, omkerr := pl.InOrderMakespan(m, widths)
		if (oerr == nil) != (omkerr == nil) {
			t.Fatalf("trial %d: InOrderMakespan err %v vs %v", trial, omkerr, oerr)
		}
		if oerr == nil && omk != o.Makespan {
			t.Fatalf("trial %d: InOrderMakespan = %d, schedule says %d", trial, omk, o.Makespan)
		}
	}
}

// referenceSchedule is the greedy placement read through a Duration
// callback, the form the scheduler had before the Matrix, kept as the
// reference the matrix placement is held to: cores in index order
// (naive) or sorted by decreasing time at the widest bus — a core
// infeasible there by its shortest feasible time on the partition's
// buses — with the lower index first among equal times, each placed on
// the bus where it finishes first, ties going to the wider bus and then
// to the lower index.
func referenceSchedule(nCores int, widths []int, dur Duration, naive bool) (*Schedule, error) {
	order := make([]int, nCores)
	for i := range order {
		order[i] = i
	}
	if !naive {
		widest := 0
		for _, w := range widths {
			widest = max(widest, w)
		}
		key := make([]int64, nCores)
		for c := range key {
			d := dur(c, widest)
			if d <= 0 {
				for _, w := range widths {
					if t := dur(c, w); t > 0 && (d <= 0 || t < d) {
						d = t
					}
				}
			}
			key[c] = d
		}
		sort.SliceStable(order, func(i, j int) bool { return key[order[i]] > key[order[j]] })
	}
	s := &Schedule{
		Widths:   append([]int(nil), widths...),
		BusTimes: make([]int64, len(widths)),
	}
	for _, c := range order {
		bestBus := -1
		var bestFinish, bestDur int64
		for b, w := range widths {
			d := dur(c, w)
			if d <= 0 {
				continue
			}
			finish := s.BusTimes[b] + d
			if bestBus < 0 || finish < bestFinish ||
				(finish == bestFinish && widths[b] > widths[bestBus]) {
				bestBus, bestFinish, bestDur = b, finish, d
			}
		}
		if bestBus < 0 {
			return nil, fmt.Errorf("sched: core %d infeasible on every bus", c)
		}
		s.Items = append(s.Items, Item{Core: c, Bus: bestBus, Start: s.BusTimes[bestBus], Duration: bestDur})
		s.BusTimes[bestBus] = bestFinish
		s.Makespan = max(s.Makespan, bestFinish)
	}
	s.sortItems()
	return s, nil
}

// TestMatrixPlacementMatchesReference: one Planner scheduling many
// partitions over one Matrix, as the architecture search does, gives
// every makespan and every schedule of the reference greedy, in
// longest-first and in index order. Times are drawn from a small range,
// so cores tie and buses of equal width tie; about one time in six is
// infeasible, so some cores are infeasible at a partition's widest bus
// and are ordered by the fallback, which depends on the partition's
// other widths, while partitions of one widest width follow each other.
// A kept order that skipped the fallback, or a sort or placement that
// broke ties another way, diverges here.
func TestMatrixPlacementMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	fallbacks := 0
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(10) + 1
		maxWidth := rng.Intn(8) + 1
		m := NewMatrix(n, maxWidth)
		for c := range n {
			row := m.Row(c)
			for w := 1; w <= maxWidth; w++ {
				if rng.Intn(6) > 0 {
					row[w] = int64(rng.Intn(6) + 1)
				}
			}
		}
		dur := func(core, width int) int64 { return m.Row(core)[width] }
		var pl Planner
		for range 20 {
			widths := make([]int, rng.Intn(4)+1)
			for i := range widths {
				widths[i] = rng.Intn(maxWidth) + 1
			}
			widest := slices.Max(widths)
			for c := range n {
				if dur(c, widest) <= 0 {
					fallbacks++
				}
			}
			for _, naive := range []bool{false, true} {
				want, werr := referenceSchedule(n, widths, dur, naive)
				var got *Schedule
				var mk int64
				var gerr, mkerr error
				if naive {
					got, gerr = pl.InOrder(m, widths)
					mk, mkerr = pl.InOrderMakespan(m, widths)
				} else {
					got, gerr = pl.Greedy(m, widths)
					mk, mkerr = pl.GreedyMakespan(m, widths)
				}
				if (werr == nil) != (gerr == nil) || (werr == nil) != (mkerr == nil) {
					t.Fatalf("trial %d, widths %v, naive %v: errors %v / %v / %v", trial, widths, naive, werr, gerr, mkerr)
				}
				if werr != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, widths %v, naive %v: schedule\n%+v\nwant\n%+v", trial, widths, naive, got, want)
				}
				if mk != want.Makespan {
					t.Fatalf("trial %d, widths %v, naive %v: makespan %d, want %d", trial, widths, naive, mk, want.Makespan)
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no core was infeasible at a partition's widest bus")
	}
}

// TestMatrixRejectsWidthsOutside: a bus width beyond the matrix, or a
// negative one, is an error, not a read of another core's row.
func TestMatrixRejectsWidthsOutside(t *testing.T) {
	m, err := tabulate(2, []int{4}, tableDur([]int64{40, 30}))
	if err != nil {
		t.Fatal(err)
	}
	var pl Planner
	for _, widths := range [][]int{{4, 5}, {-1, 4}} {
		if _, err := pl.Greedy(m, widths); err == nil {
			t.Errorf("Greedy accepted widths %v on a matrix of widths 0..4", widths)
		}
		if _, err := pl.InOrder(m, widths); err == nil {
			t.Errorf("InOrder accepted widths %v on a matrix of widths 0..4", widths)
		}
		if _, err := pl.GreedyMakespan(m, widths); err == nil {
			t.Errorf("GreedyMakespan accepted widths %v on a matrix of widths 0..4", widths)
		}
		if _, err := pl.InOrderMakespan(m, widths); err == nil {
			t.Errorf("InOrderMakespan accepted widths %v on a matrix of widths 0..4", widths)
		}
	}
	if _, err := Greedy(2, []int{-1, 4}, tableDur([]int64{40, 30})); err == nil {
		t.Error("Greedy accepted a negative bus width")
	}
}

// BenchmarkGreedySchedule measures one warm Planner scheduling call over
// a Matrix — the architecture search's innermost operation. The
// makespan-only variant must be allocation-free once the scratch is warm
// and the matrix keeps the order.
func BenchmarkGreedySchedule(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	base := make([]int64, 50)
	for i := range base {
		base[i] = int64(rng.Intn(100000) + 100)
	}
	widths := []int{12, 10, 9}
	m, err := tabulate(50, widths, tableDur(base))
	if err != nil {
		b.Fatal(err)
	}
	var pl Planner
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pl.Greedy(m, widths); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("makespan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pl.GreedyMakespan(m, widths); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGreedy50Cores(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	base := make([]int64, 50)
	for i := range base {
		base[i] = int64(rng.Intn(100000) + 100)
	}
	widths := []int{12, 10, 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(50, widths, tableDur(base)); err != nil {
			b.Fatal(err)
		}
	}
}
