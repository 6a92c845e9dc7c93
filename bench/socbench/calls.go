package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"soctap/internal/core"
	"soctap/internal/sim"
	"soctap/internal/soc"
)

// The calls below wrap each public entry point the benchmark drives.
// With tracing on they record a span around the call, derive the
// children the program reports about itself, and sample the per-layer
// metrics; with tracing off they only make the call.

// optimize calls core.OptimizeContext with the run's telemetry sink.
// Its optimize.tables and optimize.search children come from the
// Result's TableSeconds and CPUSeconds. Callers run it one at a time,
// so the tables.built counter tells how many tables this call built.
func (r *runner) optimize(parent int, req int64, s *soc.SOC, wtam int, opts core.Options) (*core.Result, error) {
	opts.Telemetry = r.tel.Root()
	built0 := r.tel.Counter("tables.built").Value()
	sp := r.tr.begin("optimize", parent, req)
	t0 := time.Now()
	res, err := core.OptimizeContext(r.ctx, s, wtam, opts)
	r.tr.end(sp)
	if err != nil || r.tr == nil {
		return res, err
	}
	r.traceOptimize(sp, req, t0, res.TableSeconds, res.CPUSeconds, r.tel.Counter("tables.built").Value()-built0)
	return res, nil
}

// traceOptimize records the tables and search phases of one optimize
// run, laid end to end from start, and samples their times.
func (r *runner) traceOptimize(parent int, req int64, start time.Time, tablesS, searchS float64, built int64) {
	tEnd := start.Add(seconds(tablesS))
	r.tr.add("optimize.tables", start, tEnd, parent, req)
	r.tr.add("optimize.search", tEnd, tEnd.Add(seconds(searchS)), parent, req)
	r.tr.sample("core.search_ms", searchS*1e3)
	if built > 0 {
		r.tr.sample("core.tables.build_ms", tablesS*1e3/float64(built))
	}
}

// verify replays a plan through sim.VerifyPlan.
func (r *runner) verify(parent int, req int64, res *core.Result) error {
	sp := r.tr.begin("verify", parent, req)
	t0 := time.Now()
	err := sim.VerifyPlan(res)
	d := time.Since(t0)
	r.tr.end(sp)
	if r.tr != nil {
		var bits int64 // stimulus bits the simulator actually replays
		for _, ch := range res.Choices {
			if ch.Config.UseTDC {
				bits += ch.Config.Volume
			}
		}
		r.tr.sample("sim.verify_ms", float64(d)/1e6)
		r.tr.sample("sim.verify_bits", float64(bits))
		r.tr.sample("sim.verify_s", d.Seconds())
	}
	return err
}

// sweep runs core.SweepTDCContext over m in [lo, hi].
func (r *runner) sweep(parent int, req int64, c *soc.Core, lo, hi int) ([]core.Config, error) {
	sp := r.tr.begin("sweep", parent, req)
	t0 := time.Now()
	cfgs, err := core.SweepTDCContext(r.ctx, c, lo, hi, 0)
	d := time.Since(t0)
	r.tr.end(sp)
	r.tr.sample("core.sweep_points", float64(len(cfgs)))
	r.tr.sample("core.sweep_s", d.Seconds())
	return cfgs, err
}

// client is one load-generator connection pool to a server.
type client struct {
	base string
	hc   *http.Client
}

// newClient opens a client using at most conns connections.
func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpOp is one POST /v1/optimize: a built-in design by name, or an
// uploaded .soc body when design is empty.
type httpOp struct {
	design string
	body   []byte
	width  int
	style  core.Style
	cold   bool // the design is new to the server, so its tables get built
}

// reply is the part of the server's JSON answer the benchmark reads.
type reply struct {
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	Plan           core.PlanJSON `json:"plan"`
}

// post sends one request. Its http.request span runs from send to the
// last byte of the answer; the serve.job child is the job's own
// elapsed_seconds, ending with the answer, and the wait — the rest of
// the request's time: transfer, parsing, the queue for a job slot and
// encoding — is the span's self time.
func (r *runner) post(c *client, op httpOp, parent int, req int64) (*reply, error) {
	q := url.Values{"width": {strconv.Itoa(op.width)}, "style": {op.style.String()}}
	if op.design != "" {
		q.Set("design", op.design)
	}
	sp := r.tr.begin("http.request", parent, req)
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/optimize?"+q.Encode(), "text/plain", bytes.NewReader(op.body))
	if err != nil {
		r.tr.end(sp)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reading answer: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	if r.tr != nil {
		job := seconds(rep.ElapsedSeconds)
		js := r.tr.add("serve.job", t1.Add(-job), t1, sp, req)
		var built int64
		if op.cold {
			built = int64(len(rep.Plan.Cores))
			r.tr.sample("serve.cold_ms", float64(t1.Sub(t0))/1e6)
		}
		r.traceOptimize(js, req, t1.Add(-job), rep.Plan.CPU.Tables, rep.Plan.CPU.Search, built)
		r.tr.sample("serve.job_ms", rep.ElapsedSeconds*1e3)
		r.tr.sample("serve.wait_ms", float64(t1.Sub(t0)-job)/1e6)
	}
	return &rep, nil
}

// seconds converts float seconds to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
