package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"soctap/internal/experiments"
)

// renderer is the common shape of every experiment result.
type renderer interface {
	Render(io.Writer) error
}

// runOne executes one named experiment on e and renders it with timing.
func runOne(ctx context.Context, e *experiments.Engine, w io.Writer, name string) error {
	start := time.Now()
	var (
		r   renderer
		err error
	)
	switch name {
	case "fig2":
		r, err = e.Fig2(ctx)
	case "fig3":
		r, err = e.Fig3(ctx)
	case "fig4":
		r, err = e.Fig4(ctx)
	case "tab1":
		r, err = e.Tab1(ctx)
	case "tab2":
		r, err = e.Tab2(ctx)
	case "tab3":
		r, err = e.Tab3(ctx)
	case "ablations":
		r, err = e.Ablations(ctx)
	case "techsel":
		r, err = e.TechSel(ctx)
	case "seeds":
		r, err = e.Seeds(ctx)
	case "verify":
		r, err = e.Verify(ctx)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := r.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "[%s regenerated in %.1fs]\n", name, time.Since(start).Seconds())
	return err
}
