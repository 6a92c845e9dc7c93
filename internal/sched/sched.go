// Package sched implements SOC test scheduling over a fixed TAM
// partition: cores assigned to the same TAM bus are tested sequentially,
// buses run in parallel, and the SOC test time is the makespan. The
// primary algorithm is the paper's Step 4 heuristic — cores sorted by
// decreasing test time, each placed on the bus where it increases the
// finish time least. A power-constrained variant (a classic companion
// problem) is provided as an extension.
package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"soctap/internal/telemetry"
)

// Duration reports the test time of core c when tested on a bus of the
// given width. A non-positive result marks the combination infeasible.
type Duration func(core, width int) int64

// Item is one scheduled core test.
type Item struct {
	Core     int
	Bus      int
	Start    int64
	Duration int64
}

// End returns the finish time of the item.
func (it Item) End() int64 { return it.Start + it.Duration }

// Schedule is a complete SOC test schedule.
type Schedule struct {
	Widths   []int // bus widths
	Items    []Item
	BusTimes []int64 // finish time per bus
	Makespan int64
}

// itemsByStart sorts items by start time then bus for stable reporting.
func (s *Schedule) sortItems() {
	sort.Slice(s.Items, func(i, j int) bool {
		if s.Items[i].Start != s.Items[j].Start {
			return s.Items[i].Start < s.Items[j].Start
		}
		if s.Items[i].Bus != s.Items[j].Bus {
			return s.Items[i].Bus < s.Items[j].Bus
		}
		return s.Items[i].Core < s.Items[j].Core
	})
}

// Validate checks schedule consistency: one bus time per bus, no
// overlap within a bus, bus times match item extents, makespan is the
// max bus time.
func (s *Schedule) Validate() error {
	if len(s.BusTimes) != len(s.Widths) {
		return fmt.Errorf("sched: %d bus times for %d buses", len(s.BusTimes), len(s.Widths))
	}
	busEnd := make([]int64, len(s.Widths))
	perBus := make([][]Item, len(s.Widths))
	for _, it := range s.Items {
		if it.Bus < 0 || it.Bus >= len(s.Widths) {
			return fmt.Errorf("sched: item for core %d on invalid bus %d", it.Core, it.Bus)
		}
		if it.Duration <= 0 {
			return fmt.Errorf("sched: item for core %d has duration %d", it.Core, it.Duration)
		}
		perBus[it.Bus] = append(perBus[it.Bus], it)
	}
	for b, items := range perBus {
		sort.Slice(items, func(i, j int) bool { return items[i].Start < items[j].Start })
		var end int64
		for _, it := range items {
			if it.Start < end {
				return fmt.Errorf("sched: overlap on bus %d at time %d (core %d)", b, it.Start, it.Core)
			}
			end = it.End()
		}
		busEnd[b] = end
	}
	var mk int64
	for b := range busEnd {
		if busEnd[b] != s.BusTimes[b] {
			return fmt.Errorf("sched: bus %d time %d, items end at %d", b, s.BusTimes[b], busEnd[b])
		}
		if busEnd[b] > mk {
			mk = busEnd[b]
		}
	}
	if mk != s.Makespan {
		return fmt.Errorf("sched: makespan %d, want %d", s.Makespan, mk)
	}
	return nil
}

// Greedy builds a schedule for nCores cores over the given bus widths
// using the paper's heuristic: sort cores by decreasing test time (taken
// at the widest bus), then place each core on the bus that minimizes the
// resulting finish time, breaking ties toward the wider bus. Returns an
// error if some core is infeasible on every bus.
func Greedy(nCores int, widths []int, dur Duration) (*Schedule, error) {
	m, err := tabulate(nCores, widths, dur)
	if err != nil {
		return nil, err
	}
	return new(Planner).Greedy(m, widths)
}

// InOrder builds a schedule placing cores in index order on the bus that
// minimizes the resulting finish time. It is the ablation baseline for
// the longest-first sort.
func InOrder(nCores int, widths []int, dur Duration) (*Schedule, error) {
	m, err := tabulate(nCores, widths, dur)
	if err != nil {
		return nil, err
	}
	return new(Planner).InOrder(m, widths)
}

// Matrix is the dense duration table schedules are placed from: row c,
// indexed by bus width 0..MaxWidth, holds core c's test time on a bus
// of that width, a non-positive time marking the combination
// infeasible. It also keeps the longest-first order per widest bus
// width, so a search that schedules many partitions over one matrix
// sorts its cores once per distinct widest width. Fill every row before
// the first schedule: a kept order is never recomputed.
type Matrix struct {
	cores, stride int
	times         []int64
	// orders[w] is the longest-first order of every partition whose
	// widest bus has width w, kept once computed when each core's time
	// at w is positive: the order then depends on w alone.
	orders [][]int
}

// NewMatrix returns a matrix of nCores rows over bus widths
// 0..maxWidth, every time zero (infeasible).
func NewMatrix(nCores, maxWidth int) *Matrix {
	return &Matrix{
		cores:  nCores,
		stride: maxWidth + 1,
		times:  make([]int64, nCores*(maxWidth+1)),
		orders: make([][]int, maxWidth+1),
	}
}

// Row returns core c's row for filling: Row(c)[w] is its test time on a
// bus of width w.
func (m *Matrix) Row(c int) []int64 {
	return m.times[c*m.stride : (c+1)*m.stride : (c+1)*m.stride]
}

// tabulate is dur's Matrix over the partition's widths: the time of
// each core at each distinct width, asked once.
func tabulate(nCores int, widths []int, dur Duration) (*Matrix, error) {
	widest := 0
	for _, w := range widths {
		if w < 0 {
			return nil, fmt.Errorf("sched: bus width %d", w)
		}
		widest = max(widest, w)
	}
	m := NewMatrix(nCores, widest)
	asked := make([]bool, widest+1)
	for _, w := range widths {
		if asked[w] {
			continue
		}
		asked[w] = true
		for c := range nCores {
			m.times[c*m.stride+w] = dur(c, w)
		}
	}
	return m, nil
}

// widest returns the widest of widths, or an error for a width outside
// the matrix.
func (m *Matrix) widest(widths []int) (int, error) {
	widest := 0
	for _, w := range widths {
		if w < 0 || w >= m.stride {
			return 0, fmt.Errorf("sched: bus width %d outside the duration matrix's 0..%d", w, m.stride-1)
		}
		widest = max(widest, w)
	}
	return widest, nil
}

// Planner schedules partitions over a Matrix with reusable scratch: the
// per-bus free-time array and the ordering buffers are kept across
// calls, so a search that schedules thousands of candidate partitions
// does not allocate per candidate. The zero value is ready to use. A
// Planner is not safe for concurrent use, nor is a Matrix; parallel
// searches give each worker its own.
type Planner struct {
	busTimes []int64 // per-bus finish-time scratch
	cts      []coreTime
	order    []int

	// Placements, when non-nil, counts core placements made by the
	// makespan paths — one per core of every schedule evaluated. The
	// nil default is free, keeping the warm makespan path at zero
	// allocations and unmeasurable overhead.
	Placements *telemetry.Counter

	// ScheduleSeconds, when non-nil, distributes the wall-clock cost of
	// each makespan placement — one observation per evaluated schedule,
	// so its count tracks sched.placements / len(order). Nil (the
	// default) reads no clock, preserving the zero-overhead contract.
	ScheduleSeconds *telemetry.Histogram

	// Check, when non-nil, is consulted once per schedule evaluation
	// (the architecture search's candidate granularity); a non-nil
	// return aborts the evaluation with that error. The search sets it
	// to ctx.Err for cancellable contexts only, so the nil default
	// keeps the warm makespan path overhead-free.
	Check func() error
}

type coreTime struct {
	core int
	time int64
}

// Greedy is the paper's longest-first heuristic (see the package-level
// Greedy) over m's times.
func (p *Planner) Greedy(m *Matrix, widths []int) (*Schedule, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	order, err := p.longestFirst(m, widths)
	if err != nil {
		return nil, err
	}
	return schedule(m, order, widths, nil)
}

// InOrder places cores in index order (see the package-level InOrder).
func (p *Planner) InOrder(m *Matrix, widths []int) (*Schedule, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	if _, err := m.widest(widths); err != nil {
		return nil, err
	}
	return schedule(m, p.indexOrder(m.cores), widths, nil)
}

// check consults the cancellation hook, if armed.
func (p *Planner) check() error {
	if p.Check == nil {
		return nil
	}
	return p.Check()
}

// GreedyMakespan returns the makespan Greedy would produce without
// materializing the schedule — the architecture search's inner loop,
// which only compares makespans. It allocates nothing once the planner's
// scratch is warm and the matrix keeps the partition's order.
func (p *Planner) GreedyMakespan(m *Matrix, widths []int) (int64, error) {
	order, err := p.longestFirst(m, widths)
	if err != nil {
		return 0, err
	}
	return p.placeMakespan(m, order, widths)
}

// InOrderMakespan is GreedyMakespan for declaration-order placement.
func (p *Planner) InOrderMakespan(m *Matrix, widths []int) (int64, error) {
	if _, err := m.widest(widths); err != nil {
		return 0, err
	}
	return p.placeMakespan(m, p.indexOrder(m.cores), widths)
}

func (p *Planner) indexOrder(nCores int) []int {
	if cap(p.order) < nCores {
		p.order = make([]int, nCores)
	}
	p.order = p.order[:nCores]
	for i := range p.order {
		p.order[i] = i
	}
	return p.order
}

// longestFirst orders the cores by decreasing time on the partition's
// widest bus, core index breaking ties. A core infeasible there is
// ordered by its shortest feasible time on the partition's buses
// instead, so the order depends on the other widths too and is built in
// the planner's scratch; when no core is, it depends on the widest
// width alone, and the matrix keeps it for every later partition of
// that widest width.
func (p *Planner) longestFirst(m *Matrix, widths []int) ([]int, error) {
	widest, err := m.widest(widths)
	if err != nil {
		return nil, err
	}
	if order := m.orders[widest]; order != nil {
		return order, nil
	}
	if cap(p.cts) < m.cores {
		p.cts = make([]coreTime, m.cores)
	}
	cts := p.cts[:m.cores]
	keep := true
	for c := range cts {
		row := m.Row(c)
		d := row[widest]
		if d <= 0 {
			keep = false
			for _, w := range widths {
				if t := row[w]; t > 0 && (d <= 0 || t < d) {
					d = t
				}
			}
		}
		cts[c] = coreTime{core: c, time: d}
	}
	// The comparator is a total order (core index breaks ties), so the
	// result does not depend on sort stability.
	slices.SortFunc(cts, func(a, b coreTime) int {
		if a.time != b.time {
			if a.time > b.time {
				return -1
			}
			return 1
		}
		return a.core - b.core
	})
	var order []int
	if keep {
		order = make([]int, m.cores)
		m.orders[widest] = order
	} else {
		if cap(p.order) < m.cores {
			p.order = make([]int, m.cores)
		}
		p.order = p.order[:m.cores]
		order = p.order
	}
	for i, x := range cts {
		order[i] = x.core
	}
	return order, nil
}

// placeMakespan runs the placement loop tracking only per-bus finish
// times, in the planner's scratch.
func (p *Planner) placeMakespan(m *Matrix, order, widths []int) (int64, error) {
	if err := p.check(); err != nil {
		return 0, err
	}
	var t0 time.Time
	if p.ScheduleSeconds != nil {
		t0 = time.Now()
	}
	if cap(p.busTimes) < len(widths) {
		p.busTimes = make([]int64, len(widths))
	}
	makespan, err := place(m, order, widths, p.busTimes[:len(widths)], nil, nil)
	if err != nil {
		return 0, err
	}
	p.Placements.Add(int64(len(order)))
	if p.ScheduleSeconds != nil {
		p.ScheduleSeconds.Observe(time.Since(t0))
	}
	return makespan, nil
}

// schedule materializes the placement of order as a Schedule.
func schedule(m *Matrix, order, widths []int, pc *powerCeiling) (*Schedule, error) {
	s := &Schedule{
		Widths:   append([]int(nil), widths...),
		BusTimes: make([]int64, len(widths)),
	}
	makespan, err := place(m, order, widths, s.BusTimes, s, pc)
	if err != nil {
		return nil, err
	}
	s.Makespan = makespan
	s.sortItems()
	return s, nil
}

// powerCeiling is GreedyPower's constraint: core c dissipates power[c]
// while under test, and the sum over every bus stays within max.
type powerCeiling struct {
	power []int
	max   int
}

// place is the one placement loop. Each core of order goes to the bus
// on which it would finish first, ties going to the wider bus and then
// to the lower index, and starts as soon as that bus is free or, under
// a power ceiling, at the earliest time from then on that keeps the
// ceiling. bt receives the buses' finish times; with s non-nil each
// placement is appended to s.Items, which a power ceiling needs. It
// returns the makespan.
func place(m *Matrix, order, widths []int, bt []int64, s *Schedule, pc *powerCeiling) (int64, error) {
	clear(bt)
	var makespan int64
	for _, c := range order {
		row := m.Row(c)
		// No feasible bus yet: any finish time is at most bestFinish,
		// and any width beats bestWidth.
		bestBus, bestWidth := -1, -1
		bestStart, bestFinish := int64(0), int64(math.MaxInt64)
		for b, w := range widths {
			d := row[w]
			if d <= 0 {
				continue
			}
			start := bt[b]
			if pc != nil {
				start = earliestPowerFeasible(s, pc.power, pc.max, pc.power[c], start, d)
			}
			finish := start + d
			if finish < bestFinish || (finish == bestFinish && w > bestWidth) {
				bestBus, bestWidth, bestStart, bestFinish = b, w, start, finish
			}
		}
		if bestBus < 0 {
			return 0, fmt.Errorf("sched: core %d infeasible on every bus", c)
		}
		if s != nil {
			s.Items = append(s.Items, Item{Core: c, Bus: bestBus, Start: bestStart, Duration: bestFinish - bestStart})
		}
		bt[bestBus] = bestFinish
		makespan = max(makespan, bestFinish)
	}
	return makespan, nil
}

// GreedyPower is the power-constrained extension: core c dissipates
// power[c] while under test and the instantaneous sum over all buses
// must stay within maxPower. Cores are placed longest-first on the bus
// and at the earliest start time that respects both the bus's sequential
// order and the power ceiling (idle gaps are inserted when needed).
func GreedyPower(nCores int, widths []int, dur Duration, power []int, maxPower int) (*Schedule, error) {
	if len(power) != nCores {
		return nil, fmt.Errorf("sched: %d power entries for %d cores", len(power), nCores)
	}
	for c, p := range power {
		if p > maxPower {
			return nil, fmt.Errorf("sched: core %d power %d exceeds ceiling %d", c, p, maxPower)
		}
	}
	m, err := tabulate(nCores, widths, dur)
	if err != nil {
		return nil, err
	}
	order, err := new(Planner).longestFirst(m, widths)
	if err != nil {
		return nil, err
	}
	return schedule(m, order, widths, &powerCeiling{power: power, max: maxPower})
}

// earliestPowerFeasible finds the earliest start >= minStart such that
// adding a task of the given power and duration keeps the instantaneous
// power within maxPower. Candidate starts are minStart and the finish
// times of already-placed items (power only drops at item finishes).
func earliestPowerFeasible(s *Schedule, power []int, maxPower, taskPower int, minStart, dur int64) int64 {
	candidates := []int64{minStart}
	for _, it := range s.Items {
		if end := it.End(); end > minStart {
			candidates = append(candidates, end)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	for _, t := range candidates {
		if powerFeasible(s, power, maxPower, taskPower, t, dur) {
			return t
		}
	}
	// Unreachable while per-core power <= maxPower: the latest candidate
	// (after every existing item) is always feasible.
	last := candidates[len(candidates)-1]
	return last
}

// powerFeasible reports whether inserting a task of the given power over
// [start, start+dur) keeps total power within maxPower at every instant.
func powerFeasible(s *Schedule, power []int, maxPower, taskPower int, start, dur int64) bool {
	end := start + dur
	// The power profile is piecewise constant; it can only peak at the
	// start of the window or at an item start inside the window.
	points := []int64{start}
	for _, it := range s.Items {
		if it.Start > start && it.Start < end {
			points = append(points, it.Start)
		}
	}
	for _, t := range points {
		sum := taskPower
		for _, it := range s.Items {
			if it.Start <= t && t < it.End() {
				sum += power[it.Core]
			}
		}
		if sum > maxPower {
			return false
		}
	}
	return true
}
