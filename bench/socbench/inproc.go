package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"soctap/internal/core"
	"soctap/internal/soc"
)

// tableOpts is the lookup-table shape of every plan the benchmark asks
// for: wide enough for each width 8..64, as in the paper's experiments.
var tableOpts = core.TableOptions{MaxWidth: 64}

// parseAll parses every text, generating each core's test cubes
// (the ATPG input the paper's table time excludes) on NumCPU workers.
func (r *runner) parseAll(parent int, texts [][]byte) ([]*soc.SOC, error) {
	socs := make([]*soc.SOC, len(texts))
	var cores []*soc.Core
	for i, t := range texts {
		s, err := r.parse(parent, t)
		if err != nil {
			return nil, err
		}
		socs[i] = s
		cores = append(cores, s.Cores...)
	}
	errs := make([]error, len(cores))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				_, errs[i] = cores[i].TestSet()
			}
		}()
	}
	for i := range cores {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return socs, nil
}

// The paper's headline numbers as this repository reproduces them
// (EXPERIMENTS.md): Table 3's industrial averages and Figure 2's spread.
const (
	tab3TimeInd = "11.33"
	tab3VolInd  = "12.76"
	fig2Spread  = "31.6"
	fig2MMin    = 204
)

// paperCold reruns the paper's evaluation from a cold table cache, round
// after round: the Figure 2 sweep, the Table 3 matrix in a seeded order,
// and one seeded industrial SOC. Test cubes are generated during set-up;
// each round starts from an empty core.Cache with no disk tier, so table
// construction, the paper's "TDC time", dominates.
func paperCold(r *runner) error {
	designs := []string{"d695", "System1", "System2", "System3", "System4"}
	sweepCore, lo, hi := "ckt-7", 128, 255
	ind := synthStructure{cores: 4, seed: 4, patterns: 64, scale: 0.5}
	if r.short {
		designs = []string{"d695"}
		sweepCore, lo, hi = "ckt-6", 64, 79
		ind = synthStructure{cores: 2, seed: 4, patterns: 16, scale: 0.1}
	}
	var tab3 []*soc.SOC
	var sweepSOC, indSOC *soc.SOC
	err := r.setup(func() (func(), error) {
		c, err := soc.IndustrialCore(sweepCore)
		if err != nil {
			return nil, err
		}
		indText, err := ind.text("industrial-4", r.seed)
		if err != nil {
			return nil, err
		}
		all, err := texts(designs, socText(&soc.SOC{Name: "fig2", Cores: []*soc.Core{c}}), indText)
		if err != nil {
			return nil, err
		}
		socs, err := r.parseAll(-1, all)
		if err != nil {
			return nil, err
		}
		tab3, sweepSOC, indSOC = socs[:len(designs)], socs[len(designs)], socs[len(designs)+1]
		return nil, nil
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(r.seed))
	var first []string
	r.measure(func() any {
		var cache *core.Cache
		for n := 0; r.more(n); n++ {
			t0 := time.Now()
			rs := r.tr.begin("round", -1, int64(n))
			cache = new(core.Cache)
			out := r.coldRound(rs, int64(n), rng, cache, tab3, sweepSOC.Cores[0], lo, hi, indSOC)
			r.tr.end(rs)
			r.op(time.Since(t0))
			if n == 0 {
				first = out
				continue
			}
			r.checkf(slices.Equal(out, first), "round %d planned differently from round 0", n)
		}
		return cache
	})
	for _, l := range first {
		r.record("%s", l)
	}
	return nil
}

// coldRound runs one paper-cold round on an empty cache and returns its
// results as lines.
func (r *runner) coldRound(rs int, req int64, rng *rand.Rand, cache *core.Cache, tab3 []*soc.SOC, sweepCore *soc.Core, lo, hi int, ind *soc.SOC) []string {
	var out []string

	cfgs, err := r.sweep(rs, req, sweepCore, lo, hi)
	r.check(err)
	if err == nil {
		tauMax, tauMin, mMin := cfgs[0].Time, cfgs[0].Time, lo
		for i, cfg := range cfgs {
			tauMax = max(tauMax, cfg.Time)
			if cfg.Time < tauMin {
				tauMin, mMin = cfg.Time, lo+i
			}
		}
		spread := fmt.Sprintf("%.1f", 100*float64(tauMax-tauMin)/float64(tauMax))
		out = append(out, fmt.Sprintf("fig2 %s spread=%s m_min=%d", sweepCore.Name, spread, mMin))
		if !r.short {
			r.checkf(spread == fig2Spread && mMin == fig2MMin,
				"Fig 2 spread %s%% with m_min = %d, want %s%% with %d", spread, mMin, fig2Spread, fig2MMin)
		}
	}

	type cell struct {
		design, width int
		style         core.Style
	}
	var cells []cell
	for d := range tab3 {
		for _, w := range []int{16, 32, 48, 64} {
			for _, st := range []core.Style{core.StyleNoTDC, core.StyleTDCPerCore} {
				cells = append(cells, cell{d, w, st})
			}
		}
	}
	order := append([]cell(nil), cells...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	// A round is one op, so the speedometer ticks inside it, between its
	// plans: about 1% of the round's time.
	results := make(map[cell]*core.Result)
	for _, c := range order {
		r.speed.tick()
		res, err := r.optimize(rs, req, tab3[c.design], c.width, core.Options{Style: c.style, Tables: tableOpts, Cache: cache})
		r.check(err)
		if err == nil {
			results[c] = res
		}
	}
	for _, c := range cells {
		if res := results[c]; res != nil {
			out = append(out, fmt.Sprintf("tab3 %s W=%d %s %d %d", tab3[c.design].Name, c.width, c.style, res.TestTime, res.Volume))
		}
	}
	// Table 3's industrial averages: every System row's no-TDC over
	// TDC-per-core ratios of test time and volume (d695 is row 0).
	var sumT, sumV float64
	var rows int
	for d := 1; d < len(tab3); d++ {
		for _, w := range []int{16, 32, 48, 64} {
			nc, c := results[cell{d, w, core.StyleNoTDC}], results[cell{d, w, core.StyleTDCPerCore}]
			if nc == nil || c == nil {
				continue
			}
			sumT += float64(nc.TestTime) / float64(c.TestTime)
			sumV += float64(nc.Volume) / float64(c.Volume)
			rows++
		}
	}
	if !r.short {
		t, v := fmt.Sprintf("%.2f", sumT/float64(rows)), fmt.Sprintf("%.2f", sumV/float64(rows))
		r.checkf(rows == 16 && t == tab3TimeInd && v == tab3VolInd,
			"Table 3 industrial averages %sx time, %sx volume over %d rows, want %sx and %sx over 16",
			t, v, rows, tab3TimeInd, tab3VolInd)
	}

	var plans [2]*core.Result
	for i, st := range []core.Style{core.StyleNoTDC, core.StyleTDCPerCore} {
		r.speed.tick()
		res, err := r.optimize(rs, req, ind, 32, core.Options{Style: st, Tables: tableOpts, Cache: cache})
		r.check(err)
		if err != nil {
			return out
		}
		plans[i] = res
		out = append(out, fmt.Sprintf("industrial W=32 %s %d %d", st, res.TestTime, res.Volume))
	}
	r.checkf(plans[1].TestTime < plans[0].TestTime,
		"industrial SOC: TDC-per-core test time %d not below no-TDC %d", plans[1].TestTime, plans[0].TestTime)
	return out
}

// planWarm replays seeded optimize requests against tables that are all
// on disk: each round opens a fresh core.Cache over the directory set-up
// filled, so search, scheduling, disk loads and content-key hashing do
// the work and no table is built.
func planWarm(r *runner) error {
	r.tailP = 0.9
	stress := synthStructure{cores: 24, seed: 24, patterns: 32, scale: 0.2}
	names := []string{"d695", "d2758"}
	if r.short {
		stress = synthStructure{cores: 4, seed: 24, patterns: 16, scale: 0.1}
		names = []string{"d695"}
	}
	stressText, err := stress.text("stress-24", r.seed)
	if err != nil {
		return err
	}
	all, err := texts(names, stressText)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	ops := planOps(rng, len(all), []core.Style{core.StyleNoTDC, core.StyleTDCPerCore})

	var dir string
	goldens := make(map[planKey]golden)
	err = r.setup(func() (func(), error) {
		d, err := os.MkdirTemp("", "socbench-tables-")
		if err != nil {
			return nil, err
		}
		cleanup := func() { os.RemoveAll(d) }
		socs, err := r.parseAll(-1, all)
		if err != nil {
			return cleanup, err
		}
		cache := new(core.Cache)
		cache.SetDir(d)
		for _, op := range ops {
			res, err := r.optimize(-1, 0, socs[op.design], op.width, core.Options{Style: op.style, Tables: tableOpts, Cache: cache})
			if err != nil {
				return cleanup, err
			}
			goldens[op.key()] = goldenOf(res)
		}
		dir = d
		return cleanup, nil
	})
	if err != nil {
		return err
	}
	r.recordGoldens(goldens)

	r.measure(func() any {
		// full is the cache of the last round that ran every op: the
		// state whose heap the run reports, whatever round the clock
		// cut short.
		done := 0
		var full *core.Cache
		for round := int64(0); r.more(done); round++ {
			rs := r.tr.begin("round", -1, round)
			cache := new(core.Cache)
			cache.SetDir(dir)
			socs := make([]*soc.SOC, len(all))
			for i, t := range all {
				s, err := r.parse(rs, t)
				r.check(err)
				if err != nil {
					r.tr.end(rs)
					return full
				}
				socs[i] = s
			}
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			ran := 0
			for _, op := range ops {
				if !r.more(done) {
					break
				}
				t0 := time.Now()
				res, err := r.optimize(rs, round, socs[op.design], op.width, core.Options{Style: op.style, Tables: tableOpts, Cache: cache})
				r.op(time.Since(t0))
				done++
				ran++
				if err == nil {
					err = goldens[op.key()].matches(res.TestTime, res.Volume)
				}
				r.check(err)
			}
			r.tr.end(rs)
			if ran == len(ops) {
				full = cache
			}
		}
		return full
	})
	r.noBuilds()
	return nil
}

// verifyPlans plans with warm tables and replays every plan through the
// cycle-accurate simulator, as socopt -verify does: sim.VerifyPlan does
// nearly all the work. The designs are built-ins with fixed cubes, and
// the seed orders the ops: a plan's replay cost follows its cubes, so
// seeded cubes made the median depend on the seed.
func verifyPlans(r *runner) error {
	r.tailP = 0.9
	names := []string{"d695", "d2758"}
	if r.short {
		names = []string{"d695"}
	}
	all, err := texts(names)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	ops := planOps(rng, len(all), []core.Style{core.StyleTDCPerCore})

	var socs []*soc.SOC
	var cache *core.Cache
	goldens := make(map[planKey]golden)
	err = r.setup(func() (func(), error) {
		var err error
		if socs, err = r.parseAll(-1, all); err != nil {
			return nil, err
		}
		cache = new(core.Cache)
		for _, op := range ops {
			res, err := r.optimize(-1, 0, socs[op.design], op.width, core.Options{Style: op.style, Tables: tableOpts, Cache: cache})
			if err != nil {
				return nil, err
			}
			goldens[op.key()] = goldenOf(res)
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	r.recordGoldens(goldens)

	r.measure(func() any {
		done := 0
		for round := int64(0); r.more(done); round++ {
			rs := r.tr.begin("round", -1, round)
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			for _, op := range ops {
				if !r.more(done) {
					break
				}
				t0 := time.Now()
				res, err := r.optimize(rs, round, socs[op.design], op.width, core.Options{Style: op.style, Tables: tableOpts, Cache: cache})
				if err == nil {
					err = r.verify(rs, round, res)
				}
				r.op(time.Since(t0))
				done++
				if err == nil {
					err = goldens[op.key()].matches(res.TestTime, res.Volume)
				}
				r.check(err)
			}
			r.tr.end(rs)
		}
		return cache
	})
	r.noBuilds()
	return nil
}

// recordGoldens adds a golden table to the run's correctness outputs.
func (r *runner) recordGoldens(goldens map[planKey]golden) {
	for k, g := range goldens {
		r.record("design=%d W=%d %s %d %d", k.design, k.width, k.style, g.testTime, g.volume)
	}
}
