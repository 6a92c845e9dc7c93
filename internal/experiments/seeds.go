package experiments

import (
	"context"
	"fmt"
	"io"

	"soctap/internal/core"
	"soctap/internal/report"
	"soctap/internal/soc"
)

// SeedRow is the Table 3 headline ratio for one cube-generator seed
// offset.
type SeedRow struct {
	SeedOffset int64
	TimeRatio  float64 // tau_nc / tau_c on System1 at W_TAM = 32
	VolRatio   float64
}

// SeedsResult is the seed-sensitivity study: the synthetic industrial
// cores are regenerated with shifted seeds and the headline reduction
// factors recomputed. Stable ratios show the reproduction's conclusions
// do not hinge on one lucky test set.
type SeedsResult struct {
	Rows                   []SeedRow
	MinTime, MaxTime, Mean float64
}

// Seeds reruns the System1/W=32 with-vs-without-TDC comparison under
// several cube seeds.
func (e *Engine) Seeds(ctx context.Context) (*SeedsResult, error) {
	run := e.start("seeds")
	defer run.end()
	r := &SeedsResult{}
	var sum float64
	for _, off := range []int64{0, 1, 2, 3, 4} {
		base, err := soc.System("System1")
		if err != nil {
			return nil, err
		}
		for _, c := range base.Cores {
			c.Seed += off * 7919 // distinct prime stride per variant
		}
		// The cache keys tables by core content, and the shifted Seed is
		// part of the key — each variant gets its own entries.
		noTDC, err := core.OptimizeContext(ctx, base, 32, run.options(core.Options{
			Style: core.StyleNoTDC, Tables: core.TableOptions{MaxWidth: 32},
		}))
		if err != nil {
			return nil, err
		}
		tdc, err := core.OptimizeContext(ctx, base, 32, run.options(core.Options{
			Style: core.StyleTDCPerCore, Tables: core.TableOptions{MaxWidth: 32},
		}))
		if err != nil {
			return nil, err
		}
		row := SeedRow{
			SeedOffset: off,
			TimeRatio:  float64(noTDC.TestTime) / float64(tdc.TestTime),
			VolRatio:   float64(noTDC.Volume) / float64(tdc.Volume),
		}
		r.Rows = append(r.Rows, row)
		sum += row.TimeRatio
		if r.MinTime == 0 || row.TimeRatio < r.MinTime {
			r.MinTime = row.TimeRatio
		}
		if row.TimeRatio > r.MaxTime {
			r.MaxTime = row.TimeRatio
		}
	}
	r.Mean = sum / float64(len(r.Rows))
	return r, nil
}

// Render prints the study.
func (r *SeedsResult) Render(w io.Writer) error {
	tab := report.NewTable("Seed sensitivity: System1 @ W_TAM=32, tau_nc/tau_c across cube seeds",
		"seed offset", "time reduction", "volume reduction")
	for _, row := range r.Rows {
		tab.Add(fmt.Sprint(row.SeedOffset),
			fmt.Sprintf("%.2fx", row.TimeRatio),
			fmt.Sprintf("%.2fx", row.VolRatio))
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"time reduction across seeds: mean %.2fx, range [%.2fx, %.2fx] — the headline\n"+
			"conclusion does not depend on a particular synthetic test set.\n",
		r.Mean, r.MinTime, r.MaxTime)
	return err
}
