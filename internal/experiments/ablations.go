package experiments

import (
	"context"
	"fmt"
	"io"

	"soctap/internal/core"
	"soctap/internal/report"
	"soctap/internal/sim"
	"soctap/internal/soc"
)

// AblationRow is one design-choice ablation outcome.
type AblationRow struct {
	Name     string
	Baseline int64   // metric with the design choice enabled
	Ablated  int64   // metric with it disabled
	Ratio    float64 // ablated / baseline (>= 1 means the choice helps)
	Metric   string
}

// AblationResult collects the DESIGN.md §5 ablations.
type AblationResult struct {
	Rows []AblationRow
}

// Ablations runs the four design-choice ablations on the benchmark
// suite (see DESIGN.md §5 and the benchmark harness, which reports the
// same quantities as bench metrics).
func (e *Engine) Ablations(ctx context.Context) (*AblationResult, error) {
	run := e.start("ablations")
	defer run.end()
	res := &AblationResult{}

	// 1. Group-copy mode of the codec (per-core volume, ckt-9, m=255).
	ckt9, err := soc.IndustrialCore("ckt-9")
	if err != nil {
		return nil, err
	}
	with, err := core.EvalTDC(ckt9, 255)
	if err != nil {
		return nil, err
	}
	without, err := core.EvalTDCNoGroupCopy(ckt9, 255)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "codec group-copy mode (ckt-9, m=255)", Metric: "compressed bits",
		Baseline: with.Volume, Ablated: without.Volume,
		Ratio: float64(without.Volume) / float64(with.Volume),
	})

	sys1, err := soc.System("System1")
	if err != nil {
		return nil, err
	}

	// 2. Within-band best-m exploration vs band maximum.
	full, err := core.OptimizeContext(ctx, sys1, 32, run.options(core.Options{
		Style: core.StyleTDCPerCore, Tables: core.TableOptions{MaxWidth: 32, BandSamples: 48},
	}))
	if err != nil {
		return nil, err
	}
	bandMax, err := core.OptimizeContext(ctx, sys1, 32, run.options(core.Options{
		Style: core.StyleTDCPerCore, Tables: core.TableOptions{MaxWidth: 32, BandSamples: 1},
	}))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "within-band m exploration (System1, W=32)", Metric: "SOC test time",
		Baseline: full.TestTime, Ablated: bandMax.TestTime,
		Ratio: float64(bandMax.TestTime) / float64(full.TestTime),
	})

	// 3. TAM-partition refinement vs even splits (prime budget).
	refined, err := core.OptimizeContext(ctx, sys1, 37, run.options(core.Options{
		Style: core.StyleTDCPerCore, Tables: core.TableOptions{MaxWidth: 37},
	}))
	if err != nil {
		return nil, err
	}
	even, err := core.OptimizeContext(ctx, sys1, 37, run.options(core.Options{
		Style: core.StyleTDCPerCore, Tables: core.TableOptions{MaxWidth: 37}, DisableRefinement: true,
	}))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "TAM wire-move refinement (System1, W=37)", Metric: "SOC test time",
		Baseline: refined.TestTime, Ablated: even.TestTime,
		Ratio: float64(even.TestTime) / float64(refined.TestTime),
	})

	// 4. Longest-first scheduling vs declaration order.
	sys2, err := soc.System("System2")
	if err != nil {
		return nil, err
	}
	lpt, err := core.OptimizeContext(ctx, sys2, 32, run.options(core.Options{
		Style: core.StyleTDCPerCore, Tables: core.TableOptions{MaxWidth: tableWidth},
	}))
	if err != nil {
		return nil, err
	}
	naive, err := core.OptimizeContext(ctx, sys2, 32, run.options(core.Options{
		Style: core.StyleTDCPerCore, Tables: core.TableOptions{MaxWidth: tableWidth}, NaiveOrder: true,
	}))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "longest-first scheduling (System2, W=32)", Metric: "SOC test time",
		Baseline: lpt.TestTime, Ablated: naive.TestTime,
		Ratio: float64(naive.TestTime) / float64(lpt.TestTime),
	})
	return res, nil
}

// Render prints the ablation table.
func (r *AblationResult) Render(w io.Writer) error {
	tab := report.NewTable("Design-choice ablations (ratio >= 1.00 means the choice helps)",
		"ablation", "metric", "with", "without", "without/with")
	for _, row := range r.Rows {
		tab.Add(row.Name, row.Metric,
			fmt.Sprint(row.Baseline), fmt.Sprint(row.Ablated),
			fmt.Sprintf("%.3f", row.Ratio))
	}
	return tab.Render(w)
}

// VerifyResult records cycle-accurate verification of optimized plans.
type VerifyResult struct {
	Designs []string
	Cores   int
}

// Verify optimizes d695 and System1 with the proposed style and replays
// every core's chosen configuration through the bit-level simulator —
// the repository's end-to-end trust check.
func (e *Engine) Verify(ctx context.Context) (*VerifyResult, error) {
	run := e.start("verify")
	defer run.end()
	out := &VerifyResult{}
	for _, name := range []string{"d695", "System1"} {
		s, ok := soc.Benchmark(name)
		if !ok {
			return nil, fmt.Errorf("unknown design %s", name)
		}
		res, err := core.OptimizeContext(ctx, s, 32, run.options(core.Options{
			Style: core.StyleTDCPerCore, Tables: core.TableOptions{MaxWidth: tableWidth},
		}))
		if err != nil {
			return nil, err
		}
		if err := sim.VerifyPlan(res); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out.Designs = append(out.Designs, name)
		out.Cores += len(res.Choices)
	}
	return out, nil
}

// Render reports the verification outcome.
func (r *VerifyResult) Render(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"verified %d core plans across %v by cycle-accurate simulation:\n"+
			"every compressed stream decodes to bit-exact stimuli and matches the analytic volume.\n",
		r.Cores, r.Designs)
	return err
}
