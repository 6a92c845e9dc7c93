package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soctap/internal/decomp"
	"soctap/internal/dictenc"
	"soctap/internal/sched"
	"soctap/internal/soc"
	"soctap/internal/tam"
	"soctap/internal/telemetry"
)

// Style selects the test-access architecture style (Figure 4 of the
// paper).
type Style int

const (
	// StyleNoTDC (Fig. 4a): cores are accessed directly over TAM wires,
	// no compression.
	StyleNoTDC Style = iota
	// StyleTDCPerTAM (Fig. 4b): one decompressor at the head of each
	// TAM expands the bus onto wide internal wrapper-chain wiring shared
	// by the cores on that TAM. Cores whose structure cannot use the
	// bus's expansion band are tested in bypass (no-TDC) mode.
	StyleTDCPerTAM
	// StyleTDCPerCore (Fig. 4c, the proposed scheme): each core has its
	// own decompressor between its wrapper and the TAM; per core, the
	// optimizer picks compressed or direct access, whichever is faster.
	StyleTDCPerCore
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleNoTDC:
		return "no-tdc"
	case StyleTDCPerTAM:
		return "tdc-per-tam"
	case StyleTDCPerCore:
		return "tdc-per-core"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// Options controls the SOC-level optimization.
type Options struct {
	Style  Style
	Tables TableOptions
	// MaxTAMs caps the number of TAM buses explored. Zero defaults to
	// min(number of cores, W_TAM).
	MaxTAMs int
	// MaxIterations bounds hill-climbing rounds per bus count. Zero
	// defaults to 64.
	MaxIterations int
	// Cache, when non-nil, memoizes per-core lookup tables across runs;
	// NewCache gives it a disk store and budgets.
	Cache *Cache
	// DisableRefinement turns off the wire-moving local search (ablation
	// knob); only even partitions are considered.
	DisableRefinement bool
	// NaiveOrder schedules cores in declaration order instead of
	// longest-first (ablation knob).
	NaiveOrder bool
	// EnableDict extends the per-core choice with dictionary coding
	// (technique selection, the ATS'08 follow-up). Only meaningful with
	// StyleTDCPerCore. DictSizes defaults to DefaultDictSizes.
	EnableDict bool
	DictSizes  []int
	// MergeSearch additionally seeds the architecture search with a
	// bottom-up bus-merging pass (in the spirit of Goel & Marinissen's
	// TR-Architect): start from many narrow buses and repeatedly merge
	// the pair that shortens the schedule most. The best of the even-
	// split and merge-seeded searches wins.
	MergeSearch bool
	// Workers bounds the table builds' parallelism: per-core lookup
	// tables are built concurrently, and each table's (w, m) exploration
	// fans out over the same bound (unless Tables.Workers overrides it).
	// The architecture search always runs on the calling goroutine.
	// Zero defaults to runtime.GOMAXPROCS(0); 1 recovers the fully
	// sequential engine. Results are bit-identical for every setting.
	Workers int
	// Telemetry, when non-nil, is the parent span this run records
	// under: phase spans (tables with one child per core, search with
	// k-sweep/refine/merge children, schedule) plus the subsystem
	// counters registered on the span's sink. Nil disables all
	// instrumentation at zero cost.
	Telemetry *telemetry.Span
}

// CoreChoice reports the configuration chosen for one core.
type CoreChoice struct {
	Core   string
	Bus    int
	Start  int64
	Config Config
}

// Result is a complete SOC test plan.
type Result struct {
	SOC       *soc.SOC
	Style     Style
	WTAM      int
	Partition tam.Partition
	Schedule  *sched.Schedule
	Choices   []CoreChoice

	TestTime int64 // schedule makespan in cycles
	Volume   int64 // total ATE stimulus storage in bits

	// InternalWires counts the wrapper-chain wires behind the
	// decompressors: the long shared buses of the per-TAM style versus
	// the short local fan-out of the per-core style. For the no-TDC
	// style it equals the TAM width.
	InternalWires int
	Decompressors int
	DecompFFs     int
	DecompGates   int

	// TableSeconds is the time spent building per-core lookup tables
	// (the "TDC time" the paper excludes from its CPU column);
	// CPUSeconds is the architecture search and scheduling time.
	TableSeconds float64
	CPUSeconds   float64
}

// Optimize designs a test architecture and schedule for the SOC under a
// total TAM width budget, following the four-step heuristic of Section 3
// of the paper: wrapper design and decompression design are captured in
// the per-core lookup tables; architecture design enumerates bus counts
// with even splits refined by single-wire moves; scheduling is greedy
// longest-first.
func Optimize(s *soc.SOC, wtam int, opts Options) (*Result, error) {
	return OptimizeContext(context.Background(), s, wtam, opts)
}

// OptimizeContext is Optimize governed by ctx. Cancellation is
// cooperative and fine-grained — observed at every (w, m) table point
// and every candidate schedule — so a cancelled run returns ctx.Err()
// promptly, with all worker goroutines drained (never leaked) and a
// `cancel.runs` mark on the run's telemetry sink. A nil ctx behaves
// like context.Background(), and an uncancelled run is bit-identical
// to Optimize.
func OptimizeContext(ctx context.Context, s *soc.SOC, wtam int, opts Options) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if wtam < 1 {
		return nil, fmt.Errorf("core: W_TAM = %d", wtam)
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 64
	}
	tabOpts := opts.Tables
	if tabOpts.MaxWidth == 0 {
		tabOpts.MaxWidth = wtam
		if tabOpts.MaxWidth < 64 {
			tabOpts.MaxWidth = 64
		}
	}
	if tabOpts.MaxWidth < wtam {
		return nil, fmt.Errorf("core: table MaxWidth %d below W_TAM %d", tabOpts.MaxWidth, wtam)
	}

	if tabOpts.Workers == 0 {
		tabOpts.Workers = opts.Workers
	}
	tel := opts.Telemetry
	defer func() {
		if canceled(err) {
			tel.Sink().Counter("cancel.runs").Inc()
		}
	}()

	tStart := time.Now()
	spTables := tel.Child("tables")
	tablesTiming := spTables.Begin()
	selectors, err := buildSelectors(ctx, s, tabOpts, opts, spTables)
	if err != nil {
		return nil, err
	}
	tablesTiming.End()
	tableSeconds := time.Since(tStart).Seconds()

	searchStart := time.Now()
	kmax := opts.MaxTAMs
	if kmax <= 0 {
		kmax = len(s.Cores)
	}
	if kmax > wtam {
		kmax = wtam
	}

	sctx := newSearchCtx(ctx, s, wtam, selectors, opts)
	spSearch := tel.Child("search")
	searchTiming := spSearch.Begin()
	bestPart, err := sctx.search(kmax, opts, spSearch)
	if err != nil {
		return nil, err
	}
	searchTiming.End()
	// Materialize the winning schedule (the search compares makespans
	// only); by construction it reproduces the winner's makespan.
	st := tel.Child("schedule").Begin()
	bestSched, err := sctx.schedule(bestPart)
	st.End()
	if err != nil {
		return nil, err
	}
	cpuSeconds := time.Since(searchStart).Seconds()

	res = &Result{
		SOC:          s,
		Style:        opts.Style,
		WTAM:         wtam,
		Partition:    bestPart,
		Schedule:     bestSched,
		TestTime:     bestSched.Makespan,
		TableSeconds: tableSeconds,
		CPUSeconds:   cpuSeconds,
	}
	fillDetails(res, selectors)
	return res, nil
}

// buildSelectors prepares each core's configuration selector, building
// the per-core lookup tables concurrently (bounded by opts.Workers).
// Cache hits go through the singleflight Cache.Get, so concurrent
// optimizer runs sharing a cache never duplicate a build. The first
// error in core order is returned. Per-core telemetry spans are created
// under parent on the calling goroutine, in core order, before the
// fan-out — worker scheduling therefore never changes the span tree.
//
// Workers stop claiming cores once ctx ends, and a panic during one
// core's build is contained on that worker as a *PanicError naming the
// core (the build of the other cores proceeds, matching how other
// build errors behave).
func buildSelectors(ctx context.Context, s *soc.SOC, tabOpts TableOptions, opts Options, parent *telemetry.Span) ([]selector, error) {
	sink := parent.Sink()
	coreSpans := make([]*telemetry.Span, len(s.Cores))
	for i, c := range s.Cores {
		coreSpans[i] = parent.Child("core:" + c.Name)
	}
	build := func(i int) (sel selector, err error) {
		defer func() {
			if r := recover(); r != nil {
				sink.Counter("panic.recovered").Inc()
				sel, err = nil, newPanicError(s.Cores[i].Name, "table/selector build", r)
			}
		}()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ct := coreSpans[i].Begin()
		defer ct.End()
		c := s.Cores[i]
		var t *Table
		if opts.Cache != nil {
			t, err = opts.Cache.get(ctx, c, tabOpts, sink)
		} else {
			t, err = buildTable(ctx, c, tabOpts, sink)
		}
		if err != nil {
			return nil, err
		}
		if opts.EnableDict && opts.Style == StyleTDCPerCore {
			sel, err := selectTechniquesWithTable(c, t, opts.DictSizes)
			if err != nil {
				return nil, err
			}
			return sel.selector(), nil
		}
		return tableSelector(opts.Style, t), nil
	}

	selectors := make([]selector, len(s.Cores))
	workers := resolveWorkers(opts.Workers, len(s.Cores))
	if workers == 1 {
		for i := range s.Cores {
			sel, err := build(i)
			if err != nil {
				return nil, err
			}
			selectors[i] = sel
		}
		return selectors, nil
	}

	errs := make([]error, len(s.Cores))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(s.Cores) {
					return
				}
				selectors[i], errs[i] = build(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return selectors, nil
}

// searchCtx carries the architecture search's state: the dense
// duration matrix and the one planner every candidate is scheduled on.
// The search runs on the calling goroutine and computes exactly one
// greedy makespan per candidate it generates; refine and mergeSearch
// generate only neighbours whose width multiset is new to their round
// (see firstOfWidth), so no candidate needs remembering.
type searchCtx struct {
	nCores int
	wtam   int
	durMat []int64 // dur[core*(wtam+1)+width], widths 1..wtam
	naive  bool
	// ctx governs the search. The planner consults ctx.Err once per
	// schedule when ctx is cancellable, and a cancelled schedule reads
	// as infeasible, so search checks ctx between phases before taking
	// a non-positive makespan for infeasibility.
	ctx context.Context
	// durFn is sc.dur bound once, so the hot loops don't allocate a
	// method value per schedule evaluation.
	durFn   sched.Duration
	planner sched.Planner
}

// newSearchCtx precomputes the dense duration matrix: one flat int64
// per (core, width) pair, replacing the selector->chooseConfig->table
// closure chain in the scheduler's inner loop with an array load.
func newSearchCtx(ctx context.Context, s *soc.SOC, wtam int, selectors []selector, opts Options) *searchCtx {
	sc := &searchCtx{
		nCores: len(s.Cores),
		wtam:   wtam,
		durMat: make([]int64, len(s.Cores)*(wtam+1)),
		naive:  opts.NaiveOrder,
		ctx:    ctx,
	}
	if ctx.Done() != nil {
		sc.planner.Check = ctx.Err
	}
	for c := range s.Cores {
		row := sc.durMat[c*(wtam+1) : (c+1)*(wtam+1)]
		for w := 1; w <= wtam; w++ {
			if cfg := selectors[c](w); cfg.Feasible {
				row[w] = cfg.Time
			}
		}
	}
	sc.durFn = sc.dur
	if sink := opts.Telemetry.Sink(); sink != nil {
		sc.planner.Placements = sink.Counter("sched.placements")
		sc.planner.ScheduleSeconds = sink.Histogram("sched.schedule_seconds")
	}
	return sc
}

// dur is the scheduler's duration callback over the dense matrix.
// Partition widths never exceed W_TAM, but clamp defensively to match
// chooseConfig's behavior.
func (sc *searchCtx) dur(core, width int) int64 {
	if width < 1 {
		return 0
	}
	if width > sc.wtam {
		width = sc.wtam
	}
	return sc.durMat[core*(sc.wtam+1)+width]
}

// schedule materializes the full schedule for a partition — used only
// for the search winner; the search itself runs on makespans.
func (sc *searchCtx) schedule(p tam.Partition) (*sched.Schedule, error) {
	if sc.naive {
		return sc.planner.InOrder(sc.nCores, p, sc.durFn)
	}
	return sc.planner.Greedy(sc.nCores, p, sc.durFn)
}

// makespan schedules one candidate partition: the schedule's makespan,
// or -1 when some core is infeasible on every bus or ctx is done. The
// greedy makespan depends on the multiset of bus widths only — ties
// between buses go to the wider one, and buses of equal width are
// interchangeable — which is what lets the search skip neighbours that
// only reorder widths.
func (sc *searchCtx) makespan(p tam.Partition) int64 {
	var mk int64
	var err error
	if sc.naive {
		mk, err = sc.planner.InOrderMakespan(sc.nCores, p, sc.durFn)
	} else {
		mk, err = sc.planner.GreedyMakespan(sc.nCores, p, sc.durFn)
	}
	if err != nil {
		return -1
	}
	return mk
}

// search runs Steps 3 and 4 of the paper over makespans: the even split
// for every bus count 1..kmax, each refined by single-wire moves, then
// (with MergeSearch) the refined result of the bottom-up merge pass. It
// returns the first partition with the smallest makespan. A panic
// anywhere in the search — in the scheduler or the neighbour
// generation — is returned as a *PanicError rather than unwinding into
// the caller.
func (sc *searchCtx) search(kmax int, opts Options, span *telemetry.Span) (best tam.Partition, err error) {
	defer func() {
		if r := recover(); r != nil {
			span.Sink().Counter("panic.recovered").Inc()
			best, err = nil, newPanicError("", "architecture search", r)
		}
	}()
	spSweep, spRefine := span.Child("k-sweep"), span.Child("refine")
	bestMk := int64(-1)
	consider := func(part tam.Partition, mk int64) {
		if !opts.DisableRefinement {
			rt := spRefine.Begin()
			part, mk = sc.refine(part, mk, opts.MaxIterations)
			rt.End()
		}
		if bestMk < 0 || mk < bestMk {
			best, bestMk = part, mk
		}
	}
	for k := 1; k <= kmax; k++ {
		part, err := tam.Even(sc.wtam, k)
		if err != nil {
			return nil, err
		}
		kt := spSweep.Begin()
		mk := sc.makespan(part)
		kt.End()
		if err := sc.ctx.Err(); err != nil {
			return nil, err
		}
		if mk <= 0 {
			// Recover the scheduler's error for the message.
			_, err := sc.schedule(part)
			return nil, fmt.Errorf("core: scheduling %d buses: %w", k, err)
		}
		consider(part, mk)
	}
	if opts.MergeSearch {
		mt := span.Child("merge").Begin()
		part, mk, err := sc.mergeSearch(kmax)
		mt.End()
		if err != nil {
			return nil, err
		}
		consider(part, mk)
	}
	if err := sc.ctx.Err(); err != nil {
		return nil, err
	}
	return best, nil
}

// firstOfWidth reports whether no bus before i, other than bus skip,
// has bus i's width. The width multiset a wire move or a merge between
// buses (i, j) yields depends on their two widths alone, so refine and
// mergeSearch schedule a pair only when i is the first bus of its width
// and j the first bus of its width other than i: each multiset a round
// can reach is scheduled once, through the pair the (i, j) scan meets
// first.
func firstOfWidth(p tam.Partition, i, skip int) bool {
	for k := 0; k < i; k++ {
		if k != skip && p[k] == p[i] {
			return false
		}
	}
	return true
}

// refine hill-climbs over single-wire moves between buses, taking the
// first strictly best move each round. Moves are tried in place on a
// private copy of part and undone after their schedule. A move from a
// bus of width w+1 to one of width w only swaps two widths and is
// skipped. No candidate is remembered across rounds: every partition an
// earlier round scheduled has a makespan no smaller than the current
// one, and a round accepts only a strictly smaller makespan.
func (sc *searchCtx) refine(part tam.Partition, mk int64, maxIter int) (tam.Partition, int64) {
	part = part.Clone()
	for iter := 0; iter < maxIter; iter++ {
		from, to, next := -1, -1, mk
		for i, wi := range part {
			if wi <= 1 || !firstOfWidth(part, i, -1) {
				continue
			}
			for j, wj := range part {
				if j == i || wi == wj+1 || !firstOfWidth(part, j, i) {
					continue
				}
				part[i]--
				part[j]++
				m := sc.makespan(part)
				part[i]++
				part[j]--
				if m > 0 && m < next {
					from, to, next = i, j, m
				}
			}
		}
		if from < 0 {
			break
		}
		part[from]--
		part[to]++
		mk = next
	}
	return part, mk
}

// mergeSearch runs the bottom-up pass: start from kmax unit-ish buses
// and repeatedly merge the pair of buses whose union shortens the
// schedule most (or hurts it least), keeping the best partition seen.
// Each merge candidate is generated into one reused partition, which
// becomes the current partition when its merge wins the round.
func (sc *searchCtx) mergeSearch(kmax int) (tam.Partition, int64, error) {
	part, err := tam.Even(sc.wtam, kmax)
	if err != nil {
		return nil, 0, err
	}
	mk := sc.makespan(part)
	if err := sc.ctx.Err(); err != nil {
		return nil, 0, err
	}
	if mk <= 0 {
		_, err := sc.schedule(part)
		return nil, 0, fmt.Errorf("core: merge search seed: %w", err)
	}
	bestPart, bestMk := part.Clone(), mk
	cand := make(tam.Partition, 0, len(part))
	// merged writes part with buses i < j replaced by their union,
	// appended last, into cand.
	merged := func(i, j int) tam.Partition {
		cand = append(cand[:0], part[:i]...)
		cand = append(cand, part[i+1:j]...)
		cand = append(cand, part[j+1:]...)
		return append(cand, part[i]+part[j])
	}
	for len(part) > 1 {
		bi, bj, next := -1, -1, int64(-1)
		for i := range part {
			if !firstOfWidth(part, i, -1) {
				continue
			}
			for j := i + 1; j < len(part); j++ {
				if !firstOfWidth(part, j, i) {
					continue
				}
				if m := sc.makespan(merged(i, j)); m > 0 && (next < 0 || m < next) {
					bi, bj, next = i, j, m
				}
			}
		}
		if bi < 0 {
			break
		}
		part, cand = merged(bi, bj), part
		if next < bestMk {
			bestPart, bestMk = part.Clone(), next
		}
	}
	return bestPart, bestMk, nil
}

// selector resolves the configuration one core uses on a bus of a given
// width.
type selector func(width int) Config

// tableSelector adapts a lookup table to a selector under a style.
func tableSelector(style Style, t *Table) selector {
	return func(width int) Config { return chooseConfig(style, t, width) }
}

// selector adapts a technique selection to the optimizer.
func (ts *TechSelection) selector() selector {
	return func(width int) Config {
		if width < 1 {
			return Config{}
		}
		if width >= len(ts.PerWidth) {
			width = len(ts.PerWidth) - 1
		}
		return ts.PerWidth[width]
	}
}

// chooseConfig resolves the configuration a core uses on a bus of the
// given width under a style.
func chooseConfig(style Style, t *Table, width int) Config {
	if width < 1 {
		return Config{}
	}
	if width > t.Opts.MaxWidth {
		width = t.Opts.MaxWidth
	}
	switch style {
	case StyleNoTDC:
		return t.NoTDC[width]
	case StyleTDCPerTAM:
		// The TAM-head decompressor consumes the full bus width; cores
		// that cannot use the expansion band run in bypass mode.
		if cfg := t.TDCExact[width]; cfg.Feasible {
			return cfg
		}
		return t.NoTDC[width]
	case StyleTDCPerCore:
		return t.Best[width]
	default:
		return Config{}
	}
}

// fillDetails derives volumes, choices and hardware accounting from the
// winning schedule.
func fillDetails(res *Result, selectors []selector) {
	res.Choices = make([]CoreChoice, 0, len(res.SOC.Cores))
	// Per-bus widest decompressor output for the per-TAM style.
	busM := make([]int, len(res.Partition))

	for _, it := range res.Schedule.Items {
		cfg := selectors[it.Core](res.Partition[it.Bus])
		res.Choices = append(res.Choices, CoreChoice{
			Core:   res.SOC.Cores[it.Core].Name,
			Bus:    it.Bus,
			Start:  it.Start,
			Config: cfg,
		})
		res.Volume += cfg.Volume
		if cfg.UseTDC {
			switch res.Style {
			case StyleTDCPerCore:
				res.InternalWires += cfg.M
				res.Decompressors++
				if cfg.Codec == CodecDict {
					hc := dictenc.CostFor(cfg.M, cfg.DictWords)
					res.DecompFFs += hc.FFs
					res.DecompGates += hc.Gates + hc.SRAMBits/8 // SRAM counted as gate equivalents
				} else {
					hc := decomp.HardwareCost(cfg.M)
					res.DecompFFs += hc.FlipFlops
					res.DecompGates += hc.Gates
				}
			case StyleTDCPerTAM:
				if cfg.M > busM[it.Bus] {
					busM[it.Bus] = cfg.M
				}
			}
		}
	}
	switch res.Style {
	case StyleNoTDC:
		res.InternalWires = res.Partition.TotalWidth()
	case StyleTDCPerTAM:
		for _, m := range busM {
			if m == 0 {
				continue
			}
			res.InternalWires += m
			res.Decompressors++
			hc := decomp.HardwareCost(m)
			res.DecompFFs += hc.FlipFlops
			res.DecompGates += hc.Gates
		}
	}
}
