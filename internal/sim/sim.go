// Package sim provides end-to-end functional simulation of the test
// delivery pipeline: each core's stimulus stream is produced exactly as
// the ATE vector image ships it (internal/atevec), fed one codeword per
// cycle through the behavioral decompressor, and every delivered scan
// slice is checked bit-for-bit against the care bits the cubes load at
// that scan depth. It is the executable proof that the analytic cost
// model used by the optimizer corresponds to real hardware behaviour,
// and it never calls that model: it uses internal/core's types only.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"soctap/internal/atevec"
	"soctap/internal/bitvec"
	"soctap/internal/core"
	"soctap/internal/cube"
	"soctap/internal/decomp"
	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

// CoreReport summarizes the simulation of one core's compressed test.
type CoreReport struct {
	Core       string
	M          int // wrapper chains
	W          int // TAM wires / codeword width
	Patterns   int
	Slices     int64 // slices delivered (= patterns × scan-in depth)
	Codewords  int64 // codewords consumed (= scan-in cycles)
	VolumeBits int64 // Codewords × W
	// Time is the simulated test time: pattern j shifts in over its cw_j
	// cycles, overlapping the previous response's so-cycle shift-out,
	// plus one capture cycle per pattern: τ = cw_1 + Σ_{j>1} max(cw_j, so)
	// + p + so.
	Time       int64
	Mismatches int // stimulus cells that disagreed with their cube
}

// RunTDCCore simulates the complete compressed test of one core with m
// wrapper chains: each pattern's shipped codeword bits (atevec.Encoder)
// are unpacked and decompressed through the cycle-accurate machine, and
// every delivered slice is checked against the cube as it arrives.
// Cubes come from soc.Core.Cubes and all scratch is recycled, so a warm
// core allocates nothing per pattern and a streamed one stays
// O(pattern). An error is returned for structural failures; care-bit
// disagreements are counted in the report (and should always be zero).
func RunTDCCore(c *soc.Core, m int) (*CoreReport, error) {
	d, err := wrapper.New(c, m)
	if err != nil {
		return nil, err
	}
	src, err := c.Cubes()
	if err != nil {
		return nil, err
	}
	r, err := newReceiver(d)
	if err != nil {
		return nil, err
	}
	r.rep = CoreReport{Core: c.Name, M: m, W: selenc.CodewordWidth(m), Patterns: src.Len()}
	enc := atevec.NewEncoder(d)
	for cb, ok := src.Next(); ok; cb, ok = src.Next() {
		if err := r.pattern(cb, enc.Encode(cb)); err != nil {
			return nil, fmt.Errorf("sim: core %s pattern %d: %w", c.Name, r.patterns, err)
		}
	}
	r.rep.VolumeBits = r.rep.Codewords * int64(r.rep.W)
	r.rep.Time += int64(r.patterns) + r.so
	return &r.rep, nil
}

// receiver is the core's end of the TAM. It unpacks a pattern's codeword
// bits, steps them through the decompressor and checks each delivered
// slice at its scan depth while the slice is still valid (the
// decompressor recycles its slice buffers), accumulating into rep.
type receiver struct {
	expected
	dec      *decomp.Decompressor
	so       int64 // scan-out depth
	cws      []selenc.Codeword
	depth    int // slices delivered so far in the pattern
	patterns int // patterns received
	rep      CoreReport
}

func newReceiver(d *wrapper.Design) (*receiver, error) {
	dec, err := decomp.New(d.M)
	if err != nil {
		return nil, err
	}
	return &receiver{expected: newExpected(d), dec: dec, so: int64(d.ScanOut)}, nil
}

// pattern receives one pattern's codeword bits for cube cb.
func (r *receiver) pattern(cb *cube.Cube, stream *bitvec.Vector) error {
	r.load(cb)
	var err error
	if r.cws, err = selenc.AppendUnpackStream(r.cws[:0], r.dec.M(), stream); err != nil {
		return err
	}
	r.depth = 0
	for _, cw := range r.cws {
		s, err := r.dec.Step(cw)
		if err != nil {
			return err
		}
		if err := r.deliver(s); err != nil {
			return err
		}
	}
	// The pipeline holds one slice; the capture-control state machine
	// flushes it at the pattern boundary.
	s, err := r.dec.Flush()
	if err != nil {
		return err
	}
	if err := r.deliver(s); err != nil {
		return err
	}
	if r.depth != r.si {
		return fmt.Errorf("delivered %d slices, want %d", r.depth, r.si)
	}
	cw := int64(len(r.cws))
	if r.patterns > 0 {
		cw = max(cw, r.so)
	}
	r.rep.Time += cw
	r.rep.Codewords += int64(len(r.cws))
	r.rep.Slices += int64(r.si)
	r.patterns++
	return nil
}

// deliver checks a slice the decompressor emitted (nil if none) at the
// next scan depth.
func (r *receiver) deliver(s *bitvec.Vector) error {
	if s == nil {
		return nil
	}
	if r.depth == r.si {
		return fmt.Errorf("more than %d slices delivered", r.si)
	}
	r.rep.Mismatches += r.check(r.depth, s)
	r.depth++
	return nil
}

// expected is one pattern's expected stimulus, read straight from the
// cube and the wrapper's stimulus map rather than from the encoder's
// grouping: per scan depth, nw words of care mask and of values.
type expected struct {
	refs        []wrapper.CellRef
	si, nw      int // scan-in depth; words per slice
	care, value []uint64
}

func newExpected(d *wrapper.Design) expected {
	nw := (d.M + 63) / 64
	return expected{
		refs:  d.StimulusMap(),
		si:    d.ScanIn,
		nw:    nw,
		care:  make([]uint64, d.ScanIn*nw),
		value: make([]uint64, d.ScanIn*nw),
	}
}

// load sets the expected stimulus to cube cb's care bits: each ORs its
// chain's bit b into the care word of its depth and, without a branch on
// its value, b & -v into the value word.
func (x *expected) load(cb *cube.Cube) {
	clear(x.care)
	clear(x.value)
	for _, bit := range cb.Care {
		r := x.refs[bit.Pos]
		i, b := int(r.Depth)*x.nw+int(r.Chain)>>6, uint64(1)<<(r.Chain&63)
		x.care[i] |= b
		x.value[i] |= b & bit.Mask()
	}
}

// check returns the number of care bits slice s gets wrong at depth.
func (x *expected) check(depth int, s *bitvec.Vector) int {
	n, row := 0, depth*x.nw
	for i, w := range s.Words() {
		n += bits.OnesCount64((w ^ x.value[row+i]) & x.care[row+i])
	}
	return n
}

// VerifyConfig cross-checks one optimizer configuration against the
// simulator. A direct-access configuration must match its wrapper
// design: m = min(width, the core's maximum useful wrapper chains), and
// the design's test time and stimulus volume. A compressed one is
// simulated and must deliver its stimulus without mismatches at exactly
// the configured interface width, volume and test time. A dictionary is
// rebuilt at the capacity the configuration records, the entries it
// actually holds; rebuilt at its own entry count it is the same
// dictionary.
func VerifyConfig(c *soc.Core, cfg core.Config) error {
	if !cfg.UseTDC {
		// One wrapper chain per TAM wire delivers the cubes verbatim, so
		// only the numbers can be wrong. Wires beyond the core's useful
		// chains stay idle.
		d, err := wrapper.New(c, cfg.M)
		if err != nil {
			return err
		}
		m := min(cfg.Width, c.MaxWrapperChains())
		if cfg.M != m || cfg.Time != d.TestTime() || cfg.Volume != d.StimulusVolume() {
			return fmt.Errorf("sim: core %s: direct config w=%d m=%d time %d volume %d, want m=%d and the wrapper design's time %d volume %d",
				c.Name, cfg.Width, cfg.M, cfg.Time, cfg.Volume, m, d.TestTime(), d.StimulusVolume())
		}
		return nil
	}
	var rep *CoreReport
	var err error
	if cfg.Codec == core.CodecDict {
		rep, err = RunDictCore(c, cfg.M, cfg.DictWords)
	} else {
		rep, err = RunTDCCore(c, cfg.M)
	}
	if err != nil {
		return err
	}
	if rep.Mismatches != 0 {
		return fmt.Errorf("sim: core %s: %d stimulus mismatches", c.Name, rep.Mismatches)
	}
	if rep.W != cfg.Width || rep.VolumeBits != cfg.Volume || rep.Time != cfg.Time {
		return fmt.Errorf("sim: core %s: simulated w=%d volume %d time %d, config has w=%d volume %d time %d",
			c.Name, rep.W, rep.VolumeBits, rep.Time, cfg.Width, cfg.Volume, cfg.Time)
	}
	return nil
}

// VerifyPlan validates a complete optimization result: the schedule is
// structurally sound, the plan's bookkeeping agrees with its schedule
// and its SOC (checkPlan), and every core's chosen configuration is
// confirmed by VerifyConfig. Each core expands its stream through its
// own decompressor, so the replays share no state: they run on
// min(GOMAXPROCS, len(Choices)) workers, the calling goroutine among
// them, which claim choices in plan order and stop claiming once one
// has failed. The error returned is the failing choice's with the
// lowest index, the one a replay in plan order would stop at; a panic
// during a replay comes back as a *core.PanicError naming the core and
// its configuration.
func VerifyPlan(res *core.Result) error {
	if res == nil || res.Schedule == nil || res.SOC == nil {
		return errors.New("sim: plan has no result, schedule or SOC")
	}
	if err := res.Schedule.Validate(); err != nil {
		return err
	}
	if err := checkPlan(res); err != nil {
		return err
	}
	return replay(res)
}

// replay runs VerifyConfig on every choice of a checked plan. Workers
// claim choices through one counter, so when a choice fails every
// choice before it has been claimed and runs to completion: the
// lowest-index error among those replayed is the plan-order one. One
// worker replays on the calling goroutine and starts none.
func replay(res *core.Result) error {
	errs := make([]error, len(res.Choices))
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(res.Choices) {
				return
			}
			if errs[i] = verifyChoice(res.SOC, res.Choices[i]); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(res.Choices)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyChoice replays one choice, containing a panic on the goroutine
// that raised it.
func verifyChoice(s *soc.SOC, ch core.CoreChoice) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cfg := ch.Config
			point := fmt.Sprintf("replay %s w=%d m=%d", cmp.Or(cfg.Codec, "direct"), cfg.Width, cfg.M)
			err = &core.PanicError{Core: ch.Core, Point: point, Value: r, Stack: debug.Stack()}
		}
	}()
	return VerifyConfig(s.CoreByName(ch.Core), ch.Config)
}

// checkPlan checks what no single configuration can: the partition is
// the schedule's bus widths, every bus has a wire and together they use
// at most WTAM; every SOC core is tested exactly once; choice i is
// schedule item i (same core, bus and start, duration = Config.Time)
// and fits its bus; and the plan's totals are the schedule's makespan
// and the sum of the configured volumes.
func checkPlan(res *core.Result) error {
	if !slices.Equal(res.Partition, res.Schedule.Widths) {
		return fmt.Errorf("sim: partition %v, schedule bus widths %v", res.Partition, res.Schedule.Widths)
	}
	if err := res.Partition.Validate(0); err != nil {
		return err
	}
	if w := res.Partition.TotalWidth(); w > res.WTAM {
		return fmt.Errorf("sim: partition %v uses %d wires, W_TAM is %d", res.Partition, w, res.WTAM)
	}
	if len(res.Choices) != len(res.Schedule.Items) {
		return fmt.Errorf("sim: %d choices for %d scheduled tests", len(res.Choices), len(res.Schedule.Items))
	}
	tested := make(map[*soc.Core]bool, len(res.SOC.Cores))
	var volume int64
	for i, ch := range res.Choices {
		c := res.SOC.CoreByName(ch.Core)
		if c == nil {
			return fmt.Errorf("sim: plan references unknown core %q", ch.Core)
		}
		if tested[c] {
			return fmt.Errorf("sim: core %s is tested twice", ch.Core)
		}
		tested[c] = true
		it := res.Schedule.Items[i]
		if it.Core < 0 || it.Core >= len(res.SOC.Cores) || res.SOC.Cores[it.Core] != c ||
			it.Bus != ch.Bus || it.Start != ch.Start || it.Duration != ch.Config.Time {
			return fmt.Errorf("sim: core %s: choice (bus %d, start %d, time %d) disagrees with schedule item %d (core %d, bus %d, start %d, duration %d)",
				ch.Core, ch.Bus, ch.Start, ch.Config.Time, i, it.Core, it.Bus, it.Start, it.Duration)
		}
		if ch.Bus >= len(res.Partition) || ch.Config.Width > res.Partition[ch.Bus] {
			return fmt.Errorf("sim: core %s: %d wires do not fit bus %d of partition %v",
				ch.Core, ch.Config.Width, ch.Bus, res.Partition)
		}
		volume += ch.Config.Volume
	}
	if len(tested) != len(res.SOC.Cores) {
		return fmt.Errorf("sim: plan tests %d of %d cores", len(tested), len(res.SOC.Cores))
	}
	if res.TestTime != res.Schedule.Makespan || res.Volume != volume {
		return fmt.Errorf("sim: plan totals time %d volume %d, schedule and choices give %d and %d",
			res.TestTime, res.Volume, res.Schedule.Makespan, volume)
	}
	return nil
}
