package core

// Per-core compression-technique selection — the extension direction the
// authors took in their ATS'08 follow-up ("Core-Level Compression
// Technique Selection and SOC Test Architecture Design"): in addition to
// direct access and selective encoding, each core may use a
// dictionary-based decompressor, and the planner picks the technique
// minimizing test time at each TAM width.

import (
	"fmt"

	"soctap/internal/dictenc"
	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

// Codec identifiers recorded in Config.Codec.
const (
	CodecDirect = ""       // no decompressor
	CodecSelEnc = "selenc" // selective encoding of scan slices
	CodecDict   = "dict"   // dictionary with fixed-length indices
)

// EvalDict evaluates testing the core through a dictionary decompressor
// with m outputs and dictWords dictionary entries. Compressed bits are
// delivered over w = 1 + ceil(log2 dictWords) TAM wires, so a
// dictionary hit arrives in one cycle; literal slices take
// ceil((1+m)/w) cycles. The per-pattern cycle count is floored by the
// scan depth. The one-time dictionary download (dictWords × m bits) is
// charged to the ATE volume.
func EvalDict(c *soc.Core, m, dictWords int) (Config, error) {
	d, err := wrapper.New(c, m)
	if err != nil {
		return Config{}, err
	}
	ts, err := c.TestSet()
	if err != nil {
		return Config{}, err
	}
	refs := d.StimulusMap()
	si := d.ScanIn
	so := int64(d.ScanOut)

	// Materialize all slices once (shared between dictionary training
	// and measurement).
	perPattern := make([][]dictenc.Slice, ts.Len())
	var all []dictenc.Slice
	for pi, cb := range ts.Cubes {
		slices := make([]dictenc.Slice, si)
		for _, bit := range cb.Care {
			r := refs[bit.Pos]
			slices[r.Depth] = append(slices[r.Depth], selenc.CareBit{Pos: int(r.Chain), Value: bit.Value})
		}
		for _, s := range slices {
			selenc.SortCare(s)
		}
		perPattern[pi] = slices
		all = append(all, slices...)
	}
	dict, err := dictenc.Build(m, dictWords, all)
	if err != nil {
		return Config{}, err
	}
	w := 1 + dict.IndexBits()

	var time, volume int64
	for j, slices := range perPattern {
		var bits int64
		for _, s := range slices {
			bits += int64(dict.EncodedBits(s))
		}
		volume += bits
		cycles := (bits + int64(w) - 1) / int64(w)
		if cycles < int64(si) {
			cycles = int64(si)
		}
		if j == 0 {
			time += cycles
		} else if cycles > so {
			time += cycles
		} else {
			time += so
		}
	}
	time += int64(ts.Len()) + so
	volume += int64(len(dict.Words) * m) // one-time dictionary download

	return Config{
		Feasible:  true,
		UseTDC:    true,
		Codec:     CodecDict,
		Width:     w,
		M:         m,
		DictWords: len(dict.Words), // actual entries created (≤ dictWords)
		Time:      time,
		Volume:    volume,
	}, nil
}

// TechSelection is the outcome of per-core technique selection: the
// best configuration at every TAM width over direct access, selective
// encoding, and dictionary coding.
type TechSelection struct {
	Core *soc.Core
	// PerWidth[u] is the winning configuration at TAM width u; index 0
	// is unused.
	PerWidth []Config
	// DictBest[u] is the best dictionary-only configuration with
	// interface width at most u (for reporting).
	DictBest []Config
}

// DefaultDictSizes are the dictionary capacities explored by
// SelectTechniques when none are given.
var DefaultDictSizes = []int{16, 64, 256}

// SelectTechniques builds the technique-selection table for one core:
// the selective-encoding/direct table of BuildTable, joined with a sweep
// of dictionary configurations over the given dictionary sizes and a
// small set of wrapper widths.
func SelectTechniques(c *soc.Core, opts TableOptions, dictSizes []int) (*TechSelection, error) {
	opts = opts.withDefaults()
	tab, err := BuildTable(c, opts)
	if err != nil {
		return nil, err
	}
	return selectTechniquesWithTable(c, tab, dictSizes)
}

// selectTechniquesWithTable joins an existing (possibly cached) lookup
// table with the dictionary sweep.
func selectTechniquesWithTable(c *soc.Core, tab *Table, dictSizes []int) (*TechSelection, error) {
	opts := tab.Opts
	if len(dictSizes) == 0 {
		dictSizes = DefaultDictSizes
	}
	maxM := c.MaxWrapperChains()

	// Wrapper-width candidates for the dictionary: powers of two up to
	// the core's maximum (the dictionary interface width is set by the
	// dictionary size, not by m, so a sparse m sweep suffices).
	var mCands []int
	for m := 16; m < maxM; m *= 4 {
		mCands = append(mCands, m)
	}
	mCands = append(mCands, maxM)

	sel := &TechSelection{
		Core:     c,
		PerWidth: make([]Config, opts.MaxWidth+1),
		DictBest: make([]Config, opts.MaxWidth+1),
	}
	var dictCfgs []Config
	for _, dw := range dictSizes {
		if dw < 1 {
			return nil, fmt.Errorf("core: dictionary size %d", dw)
		}
		for _, m := range mCands {
			cfg, err := EvalDict(c, m, dw)
			if err != nil {
				return nil, err
			}
			dictCfgs = append(dictCfgs, cfg)
		}
	}
	for u := 1; u <= opts.MaxWidth; u++ {
		best := Config{}
		for _, cfg := range dictCfgs {
			if cfg.Width <= u && cfg.better(best) {
				best = cfg
			}
		}
		sel.DictBest[u] = best
		win := tab.Best[u]
		if best.better(win) {
			win = best
		}
		sel.PerWidth[u] = win
	}
	return sel, nil
}
