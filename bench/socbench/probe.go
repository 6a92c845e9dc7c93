package main

import (
	"encoding/json"
	"io"
	"os"
	"time"

	"soctap/internal/core"
	"soctap/internal/soc"
)

// probeLadder ends every traced run by calling each layer a few times on
// one small fixed design (d695), so every per-layer metric has samples,
// also on a workload that never calls that layer. It runs after the
// timed phase; its calls count toward the per-layer medians and toward
// no share.
func (r *runner) probeLadder() error {
	ps := r.tr.begin("probe", -1, 0)
	defer r.tr.end(ps)
	text := socText(soc.D695())
	var s *soc.SOC
	for i := 0; i < 10; i++ {
		var err error
		if s, err = r.parse(ps, text); err != nil {
			return err
		}
	}

	// Cache tiers: fill a disk store, then time core.Cache.GetContext
	// on a fresh cache over it — a disk load — and again — a memory hit.
	dir, err := os.MkdirTemp("", "socbench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fill := new(core.Cache)
	fill.SetDir(dir)
	for _, c := range s.Cores {
		if _, err := fill.GetContext(r.ctx, c, tableOpts); err != nil {
			return err
		}
	}
	cache := new(core.Cache)
	cache.SetDir(dir)
	for _, metric := range []string{"core.cache.disk_load_us", "core.cache.get_us"} {
		for _, c := range s.Cores {
			t0 := time.Now()
			if _, err := cache.GetContext(r.ctx, c, tableOpts); err != nil {
				return err
			}
			r.tr.sample(metric, float64(time.Since(t0))/1e3)
		}
	}

	res, err := r.optimize(ps, 0, s, 16, core.Options{Style: core.StyleTDCPerCore, Tables: tableOpts, Cache: cache})
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if err := r.verify(ps, 0, res); err != nil {
			return err
		}
	}
	if _, err := r.sweep(ps, 0, s.Cores[len(s.Cores)-1], 32, 63); err != nil {
		return err
	}

	// The answer encoding of the service, timed in process on this plan.
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reply{ElapsedSeconds: res.CPUSeconds, Plan: res.Plan()}); err != nil {
			return err
		}
		r.tr.sample("serve.encode_us", float64(time.Since(t0))/1e3)
	}

	srv, err := startServer(new(core.Cache))
	if err != nil {
		return err
	}
	defer srv.stop()
	cl := newClient(srv.base, 1)
	defer cl.close()
	for i := 0; i < 11; i++ {
		if _, err := r.post(cl, httpOp{design: "d695", width: 16, style: core.StyleTDCPerCore, cold: i == 0}, ps, int64(i)); err != nil {
			return err
		}
	}
	return nil
}
