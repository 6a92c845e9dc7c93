package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"soctap/internal/core"
	"soctap/internal/serve"
	"soctap/internal/soc"
)

// server is a socserve instance on a loopback listener.
type server struct {
	srv   *serve.Server
	hs    *http.Server
	done  chan error
	base  string
	cache *core.Cache
}

// startServer serves serve.New(...).Handler() over cache with one job
// slot per CPU.
func startServer(cache *core.Cache) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:   serve.New(serve.Config{MaxJobs: runtime.NumCPU(), Cache: cache}),
		done:  make(chan error, 1),
		base:  "http://" + ln.Addr().String(),
		cache: cache,
	}
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the job plane, closes the listener and waits until the
// serving goroutine has returned.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Drain(ctx)   // past the deadline jobs are cancelled and still awaited
	s.hs.Shutdown(ctx) // a timed-out shutdown leaves nothing more to wait for
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "socbench: server stopped with %v\n", err)
	}
}

// warmServer is the set-up both serve workloads share: a server over a
// fresh cache, warmed — and its goldens computed — by planning every op
// in process on the server's own cache.
func (r *runner) warmServer(names []string, ops []planOp) (*server, map[planKey]golden, error) {
	all, err := texts(names)
	if err != nil {
		return nil, nil, err
	}
	socs := make([]*soc.SOC, len(all))
	for i, t := range all {
		if socs[i], err = r.parse(-1, t); err != nil {
			return nil, nil, err
		}
	}
	srv, err := startServer(new(core.Cache))
	if err != nil {
		return nil, nil, err
	}
	goldens := make(map[planKey]golden)
	for _, op := range ops {
		res, err := r.optimize(-1, 0, socs[op.design], op.width, core.Options{Style: op.style, Cache: srv.cache})
		if err != nil {
			srv.stop()
			return nil, nil, err
		}
		goldens[op.key()] = goldenOf(res)
	}
	return srv, goldens, nil
}

// warmOps turns the seeded plan ops into HTTP requests: half ask for a
// built-in design by name, half upload its .soc text.
func warmOps(rng *rand.Rand, names []string, ops []planOp) ([]httpOp, []planKey, error) {
	bodies, err := texts(names)
	if err != nil {
		return nil, nil, err
	}
	var reqs []httpOp
	var keys []planKey
	for _, op := range ops {
		for _, upload := range []bool{false, true} {
			h := httpOp{design: names[op.design], width: op.width, style: op.style}
			if upload {
				h.design, h.body = "", bodies[op.design]
			}
			reqs = append(reqs, h)
			keys = append(keys, op.key())
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) {
		reqs[i], reqs[j] = reqs[j], reqs[i]
		keys[i], keys[j] = keys[j], keys[i]
	})
	return reqs, keys, nil
}

// maxLateMs bounds how far behind schedule an open loop may run (at its
// 99th percentile) before the run is declared invalid: past it the
// arrivals built a growing backlog, and latency measures the queue.
const maxLateMs = 1000

// checkOpenLoop counts an open loop's requests as checks and records
// how late its generator ran.
func (r *runner) checkOpenLoop(st loopStats) {
	for i := range st.latency {
		r.check(st.errs[i])
		r.lateMs = append(r.lateMs, float64(st.late[i])/1e6)
	}
	late, _ := percentile(r.lateMs, 0.99)
	r.checkf(late <= maxLateMs, "load generator fell %.0f ms behind schedule (p99; limit %d ms)", late, maxLateMs)
}

// serveWarm drives a warmed server with an open loop of seeded Poisson
// arrivals over at most one connection per CPU: HTTP handling, design
// parsing, in-memory cache hits and search do the work.
func serveWarm(r *runner) error {
	// p99 has enough samples here, but moved 28% between runs of one
	// commit; p90 holds within the bound.
	r.tailP = 0.9
	names := []string{"d695", "d2758"}
	rate := 500.0
	if r.short {
		names, rate = []string{"d695"}, 100
	}
	rng := rand.New(rand.NewSource(r.seed))
	ops := planOps(rng, len(names), []core.Style{core.StyleNoTDC, core.StyleTDCPerCore})
	reqs, keys, err := warmOps(rng, names, ops)
	if err != nil {
		return err
	}
	due := poissonArrivals(r.seed, rate, r.seconds)
	pick := make([]int, len(due))
	for i := range pick {
		pick[i] = rng.Intn(len(reqs))
	}

	var srv *server
	var goldens map[planKey]golden
	err = r.setup(func() (func(), error) {
		var err error
		srv, goldens, err = r.warmServer(names, ops)
		if err != nil {
			return nil, err
		}
		return srv.stop, nil
	})
	if err != nil {
		return err
	}
	r.recordGoldens(goldens)
	r.addSink(srv.srv.Sink())

	conns := runtime.NumCPU()
	cl := newClient(srv.base, conns)
	defer cl.close()
	var st loopStats
	r.measure(func() any {
		st = openLoop(r.ctx, time.Now(), due, conns, func(i int) error {
			rep, err := r.post(cl, reqs[pick[i]], -1, int64(i))
			if err != nil {
				return err
			}
			return goldens[keys[pick[i]]].matches(rep.Plan.TestTime, rep.Plan.Volume)
		}, r.speed.tick)
		return srv
	})
	r.checkOpenLoop(st)
	for _, d := range st.latency {
		r.op(d)
	}
	r.noBuilds()
	return nil
}

// coldPerSecond sizes serve-mixed: it uploads this many cold designs
// per second of --seconds. At --seconds 15 that is 105 uploads, enough
// for p90 to have ten samples beyond it.
const coldPerSecond = 7

// coldDeadline is how long serve-mixed's uploads may take, as a
// multiple of --seconds, before the run stops them and fails: 25 s at
// --seconds 15. On a two-CPU machine they take about 11 s, and 16 s in
// the slowest phases measured. Builds slower than that are reported as
// a failed run instead of overrunning.
const coldDeadline = 5.0 / 3

// serveMixed writes the cache while reading it: one connection uploads
// never-seen designs back to back (a closed loop), each building its
// tables, while the other sends warm requests in an open loop until the
// last upload completes. Its op is the cold upload. The warm requests'
// latency, which waits on the builds, is reported beside the metrics:
// queueing behind builds amplifies the machine's own speed changes, and
// it moved 25% between runs of one commit. The number of uploads
// follows --seconds rather than the clock, so every run builds, and
// retains, the same tables; the clock only stops them at coldDeadline.
func serveMixed(r *runner) error {
	r.tailP = 0.9
	names := []string{"d695"}
	rate := 50.0
	colds := max(int(coldPerSecond*r.seconds.Seconds()), 1)
	cold := synthStructure{cores: 3, seed: 33, patterns: 24, scale: 0.5}
	if r.short {
		rate = 20
		cold = synthStructure{cores: 2, seed: 33, patterns: 16, scale: 0.1}
	}
	rng := rand.New(rand.NewSource(r.seed))
	ops := planOps(rng, len(names), []core.Style{core.StyleNoTDC, core.StyleTDCPerCore})
	reqs, keys, err := warmOps(rng, names, ops)
	if err != nil {
		return err
	}
	// Arrivals for well past the expected end: the loop stops with the
	// last cold upload.
	due := poissonArrivals(r.seed, rate, 10*r.seconds)
	pick := make([]int, len(due))
	for i := range pick {
		pick[i] = rng.Intn(len(reqs))
	}
	coldReqs := make([]httpOp, colds)
	for i := range coldReqs {
		text, err := cold.text(fmt.Sprintf("cold-%d", i), r.seed*1000+int64(i))
		if err != nil {
			return err
		}
		coldReqs[i] = httpOp{body: text, width: widths[i%len(widths)], style: core.StyleTDCPerCore, cold: true}
	}

	var srv *server
	var goldens map[planKey]golden
	err = r.setup(func() (func(), error) {
		var err error
		srv, goldens, err = r.warmServer(names, ops)
		if err != nil {
			return nil, err
		}
		return srv.stop, nil
	})
	if err != nil {
		return err
	}
	r.recordGoldens(goldens)
	r.addSink(srv.srv.Sink())

	warmConns := max(runtime.NumCPU()-1, 1)
	warm, coldCl := newClient(srv.base, warmConns), newClient(srv.base, 1)
	defer warm.close()
	defer coldCl.close()
	var st loopStats
	var coldReplies []*reply
	var coldErrs []error
	var coldTimes []time.Duration
	deadline := time.Duration(coldDeadline * float64(r.seconds))
	r.measure(func() any {
		ctx, coldsDone := context.WithCancel(r.ctx)
		defer coldsDone()
		coldDone := make(chan struct{})
		go func() {
			defer close(coldDone)
			defer coldsDone()
			for i := range coldReqs {
				if time.Since(r.t0) > deadline {
					return
				}
				t0 := time.Now()
				rep, err := r.post(coldCl, coldReqs[i], -1, -int64(i)-1)
				coldTimes = append(coldTimes, time.Since(t0))
				coldReplies = append(coldReplies, rep)
				coldErrs = append(coldErrs, err)
				r.speed.tick()
			}
		}()
		st = openLoop(ctx, time.Now(), due, warmConns, func(i int) error {
			rep, err := r.post(warm, reqs[pick[i]], -1, int64(i))
			if err != nil {
				return err
			}
			return goldens[keys[pick[i]]].matches(rep.Plan.TestTime, rep.Plan.Volume)
		}, r.speed.tick)
		<-coldDone
		return srv
	})
	r.checkOpenLoop(st)
	for _, d := range coldTimes {
		r.op(d)
	}
	for _, d := range st.latency {
		r.warmMs = append(r.warmMs, float64(d)/1e6)
	}

	r.checkf(len(coldReplies) == len(coldReqs), "cold uploads stopped at the %v deadline after %d of %d",
		deadline, len(coldReplies), len(coldReqs))
	for i, rep := range coldReplies {
		err := coldErrs[i]
		if err == nil {
			err = r.checkCold(srv, coldReqs[i], rep)
		}
		if err != nil {
			err = fmt.Errorf("cold upload %d: %w", i, err)
		}
		r.check(err)
	}
	return nil
}

// checkCold compares a cold upload's answer with its golden: the same
// design planned again in process on the server's cache, which holds
// its tables by now.
func (r *runner) checkCold(srv *server, req httpOp, rep *reply) error {
	s, err := r.parse(-1, req.body)
	if err != nil {
		return err
	}
	res, err := r.optimize(-1, 0, s, req.width, core.Options{Style: req.style, Cache: srv.cache})
	if err != nil {
		return err
	}
	return goldenOf(res).matches(rep.Plan.TestTime, rep.Plan.Volume)
}
