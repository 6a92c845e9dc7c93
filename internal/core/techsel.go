package core

// Per-core compression-technique selection — the extension direction the
// authors took in their ATS'08 follow-up ("Core-Level Compression
// Technique Selection and SOC Test Architecture Design"): in addition to
// direct access and selective encoding, each core may use a
// dictionary-based decompressor, and the planner picks the technique
// minimizing test time at each TAM width.

import (
	"context"
	"fmt"

	"soctap/internal/dictenc"
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
// delivered over w = 1 + ceil(log2 D) TAM wires, D the entries the
// dictionary holds (at most dictWords), so a dictionary hit arrives in
// one cycle; literal slices take ceil((1+m)/w) cycles. The per-pattern
// cycle count is floored by the scan depth. The one-time dictionary
// download (D × m bits) is charged to the ATE volume.
func EvalDict(c *soc.Core, m, dictWords int) (Config, error) {
	cfgs, err := evalDicts(context.TODO(), c, m, []int{dictWords})
	if err != nil {
		return Config{}, err
	}
	return cfgs[0], nil
}

// evalDicts is EvalDict at every capacity of sizes, priced from one
// dictenc.Encode: one training and one coding pass over the cubes.
func evalDicts(ctx context.Context, c *soc.Core, m int, sizes []int) ([]Config, error) {
	d, err := wrapper.New(c, m)
	if err != nil {
		return nil, err
	}
	src, err := c.Cubes()
	if err != nil {
		return nil, err
	}
	si, so := int64(d.ScanIn), int64(d.ScanOut)
	cfgs := make([]Config, len(sizes))
	for k := range cfgs {
		cfgs[k] = Config{Feasible: true, UseTDC: true, Codec: CodecDict, M: m}
	}
	first := true
	_, err = dictenc.Encode(ctx, d, src, sizes, func(tallies []dictenc.Tally) {
		for k, t := range tallies {
			cycles := max((t.Bits+int64(t.Hit)-1)/int64(t.Hit), si)
			if !first {
				cycles = max(cycles, so)
			}
			cfg := &cfgs[k]
			cfg.Width, cfg.DictWords = t.Hit, t.Words
			cfg.Time += cycles
			cfg.Volume += t.Bits
		}
		first = false
	}, nil)
	if err != nil {
		return nil, err
	}
	for k := range cfgs {
		cfgs[k].Time += int64(src.Len()) + so
		cfgs[k].Volume += int64(cfgs[k].DictWords * m) // one-time dictionary download
	}
	return cfgs, nil
}

// TechSelection is the outcome of per-core technique selection: the
// best configuration at every TAM width over direct access, selective
// encoding, and dictionary coding. Like a Table, it keeps only its rows,
// nothing of the core it priced, so a live selection does not keep the
// core's test set alive.
type TechSelection struct {
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
	return selectTechniquesWithTable(context.TODO(), c, tab, dictSizes)
}

// selectTechniquesWithTable joins an existing (possibly cached) lookup
// table with the dictionary sweep: one evalDicts per wrapper width
// prices every dictionary size. ctx is checked between patterns.
func selectTechniquesWithTable(ctx context.Context, c *soc.Core, tab *Table, dictSizes []int) (*TechSelection, error) {
	opts := tab.Opts
	if len(dictSizes) == 0 {
		dictSizes = DefaultDictSizes
	}
	for _, dw := range dictSizes {
		if dw < 1 {
			return nil, fmt.Errorf("core: dictionary size %d", dw)
		}
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
		PerWidth: make([]Config, opts.MaxWidth+1),
		DictBest: make([]Config, opts.MaxWidth+1),
	}
	// Candidates stay size-major, then m: better is strict, so this
	// order breaks ties.
	dictCfgs := make([]Config, len(dictSizes)*len(mCands))
	for i, m := range mCands {
		cfgs, err := evalDicts(ctx, c, m, dictSizes)
		if err != nil {
			return nil, err
		}
		for k, cfg := range cfgs {
			dictCfgs[k*len(mCands)+i] = cfg
		}
	}
	var tdc Config
	for u := 1; u <= opts.MaxWidth; u++ {
		best := Config{}
		for _, cfg := range dictCfgs {
			if cfg.Width <= u && cfg.better(best) {
				best = cfg
			}
		}
		sel.DictBest[u] = best
		tdc = tab.tdcStep(tdc, u)
		win := tab.pick(StyleTDCPerCore, u, tdc)
		if best.better(win) {
			win = best
		}
		sel.PerWidth[u] = win
	}
	return sel, nil
}
