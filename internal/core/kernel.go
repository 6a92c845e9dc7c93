// Counting slice kernel: the inner loop of every TDC evaluation. Under
// selective encoding a scan slice costs one header plus, per k-bit
// codec group holding t target bits, min(t, 2) operation codewords (t
// without group copy), where the targets are the care bits that differ
// from the slice's majority fill. Every term is a count, so the kernel
// never materializes a slice.
//
// A segment is one wrapper input cell or one whole scan chain: the
// wrapper places it as a unit, so its cells occupy consecutive rows of
// one wrapper chain. When a window loads, each care ref is re-encoded
// once from pos<<1|value to seg<<32|offset<<1|value (segmentRefs), and
// a design's point table holds one packed row | slot<<32 base per
// segment, so a cell lands at row base+offset and slot base+offset,
// both resolved by one add. Slots are group-major — base[chain/k] +
// row, base the prefix sum of each codec group's deepest chain — so
// the slot counters never outnumber the stimulus cells. The kernel
// then walks a cube's refs twice —
//
//  1. resolve each ref's cell once, and tally the row's balance, ones
//     minus zeros;
//  2. take the row's fill (balance > 0: ones win, ties go to 0, exactly
//     as selenc.ChooseFill) and count every target bit into its slot,
//     adding an operation on a slot's first and second target with
//     group copy, or on every target without — branch-free in both arms;
//
// and then re-zeroes the counters: in bulk over the point's whole row
// and slot span when that span is under bulkResetBytes bytes per ref,
// else by walking the resolved cells, so the reset never writes more
// than bulkResetBytes bytes per care ref.
//
// Work is proportional to the cube's care bits, whatever the design's
// depth or width, and a new design costs one wrapper.Packer build plus
// O(inputs + scan chains) table entries — no table has one entry per
// stimulus cell. The design is rebuilt in place, the point table is
// written into recycled storage and the counters are Evaluator scratch
// grown to high-water marks and all-zero between cubes, so neither
// steady-state pricing nor a new m allocates anything (gate-enforced by
// `make check`). The kernel is exact: the real-encoder cross-checks and
// the golden tables are its oracle.
package core

import (
	"sort"

	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

// kernelScratch holds the counters of one Evaluator's counting kernel
// and the resolved cells of the cube it is pricing. The counters are
// all-zero between cubes; the per-window data the kernel reads (the
// flattened care refs) lives on the evaluator's evalWindow (eval.go) so
// mirrors can share a producer's window while owning their scratch.
type kernelScratch struct {
	bal  []int32     // per slice row: ones minus zeros among its care bits
	slot []uint8     // per (group, row) slot: target bits counted, saturating at 2
	at   []kernelSeg // per care ref of the cube: its cell, row | slot<<32
}

// fit grows the counters to cover pt's design.
func (ks *kernelScratch) fit(pt *tdcPoint) {
	if rows := int(pt.si); len(ks.bal) < rows {
		ks.bal = make([]int32, rows)
	}
	if n := pt.slots; len(ks.slot) < n {
		ks.slot = make([]uint8, n)
	}
}

// tdcPoint is one (w, m) evaluation in progress: the point table the
// counting kernel reads for its wrapper design, the design's cost-model
// constants, and the running accumulators of one pass over the cubes.
// It does not retain the design, so a fused batch holds one
// O(inputs + scan chains) table per point.
type tdcPoint struct {
	m      int         // wrapper chains
	segs   []kernelSeg // per segment: input cells, then scan chains
	slots  int         // group-major counter slots the design needs
	si, so int64       // scan-in and scan-out depth
	w      int64       // codeword width, selenc.CodewordWidth(m)

	totalCW int64 // codewords emitted so far
	timeAcc int64 // cw_1 + Σ_{j>1} max(cw_j, so) so far
}

// kernelSeg is a cell packed as row | slot<<32: its slice row (wrapper
// depth) and its counter slot, base[chain/k] + row, where base is the
// prefix sum of each codec group's deepest chain. A point table holds
// one per segment, where the segment's first cell lands in every cube;
// the cell at offset o of the segment lands at row+o and slot+o, which
// resolveCell reaches with one add.
type kernelSeg uint64

func packCell(row, slot int32) kernelSeg {
	return kernelSeg(uint32(row)) | kernelSeg(uint32(slot))<<32
}

func (c kernelSeg) row() uint32  { return uint32(c) }
func (c kernelSeg) slot() uint32 { return uint32(c >> 32) }

// resolveCell returns the cell of segment ref p (seg<<32|offset<<1|
// value) under point table segs: one add of offset·(1<<32|1) moves the
// row and the slot together. Rows and slots stay below StimulusBits()
// <= soc.MaxStimulusBits = 2^28, so the add never carries from the row
// half into the slot half.
func resolveCell(segs []kernelSeg, p uint64) kernelSeg {
	return segs[p>>32] + kernelSeg(uint32(p)>>1)*(1<<32|1)
}

// resolveCells is the kernel's first pass: it resolves the cell of
// every ref into at and tallies each cell's row balance, ones minus
// zeros. It stays out of line: inlined into patternOps, its loop ran
// out of registers and spilled two values per ref, and the Workers-1
// builds of 34 cores that bulkResetBytes describes took 1.63 s against
// 1.50 s (medians of per-round minima over 8 alternated rounds).
//
//go:noinline
func resolveCells(at []kernelSeg, refs []uint64, segs []kernelSeg, bal []int32) {
	at = at[:len(refs)]
	for i, p := range refs {
		c := resolveCell(segs, p)
		at[i] = c
		bal[c.row()] += int32(p&1)<<1 - 1
	}
}

// bulkResetBytes is the reset rule's budget per care ref: after pricing
// a cube, the kernel clears the point's whole counter span — slot bytes
// plus 4 bytes per row balance — when that span is under
// bulkResetBytes times the cube's refs, and otherwise re-zeroes the
// counters cell by cell. Either way the reset writes at most
// bulkResetBytes bytes per ref. In Workers-1 builds of 34 cores (the 22
// distinct paper cores and 12 shaped like socbench's serve-mixed
// uploads) 392k cube pricings take the bulk reset and 54k the walk; at
// 8 the split is 300k/145k and at 32 427k/18k. Over 8 alternated rounds
// those builds took 1.29 s (median of per-round minima) at 16, and
// 1.38 s both at 8 and at 32, 16 winning 6 of 8 rounds against each.
// Always clearing in bulk read 1.34 s, winning 4 of 8, and would give up
// the bound per ref.
const bulkResetBytes = 16

// bulkReset reports whether a cube of refs care refs resets its
// counters in bulk: slotBytes slot counters and rows row balances.
func bulkReset(slotBytes, rows, refs int) bool {
	return slotBytes+4*rows < bulkResetBytes*refs
}

// newTDCPoint writes design d's point table straight from its chains,
// reusing segs' storage when it is large enough.
func newTDCPoint(d *wrapper.Design, segs []kernelSeg) tdcPoint {
	c := d.Core
	nIn := c.InCells()
	if n := nIn + len(c.ScanChains); cap(segs) < n {
		segs = make([]kernelSeg, n)
	} else {
		segs = segs[:n]
	}
	k := selenc.PayloadBits(d.M)
	in := 0               // next input-cell segment
	var base, depth int32 // current group's first slot and deepest chain
	for ci := range d.Chains {
		ch := &d.Chains[ci]
		if ci%k == 0 {
			base, depth = base+depth, 0
		}
		for x := int32(0); x < int32(ch.InCells); x++ {
			segs[in] = packCell(x, base+x)
			in++
		}
		row := int32(ch.InCells)
		for _, sc := range ch.ScanChains {
			segs[nIn+sc] = packCell(row, base+row)
			row += int32(c.ScanChains[sc])
		}
		depth = max(depth, row)
	}
	return tdcPoint{
		m:     d.M,
		segs:  segs,
		slots: int(base + depth),
		si:    int64(d.ScanIn),
		so:    int64(d.ScanOut),
		w:     int64(k + 2),
	}
}

// segmentStarts returns the segment boundaries segmentRefs re-encodes
// against: the flat start of every scan chain of c, after its input
// cells, plus a final end sentinel.
func segmentStarts(c *soc.Core) []uint64 {
	starts := make([]uint64, len(c.ScanChains)+1)
	starts[0] = uint64(c.InCells())
	for i, l := range c.ScanChains {
		starts[i+1] = starts[i] + uint64(l)
	}
	return starts
}

// segmentRefs re-encodes a loaded window's care refs in place, from
// pos<<1|value to seg<<32|offset<<1|value against segmentStarts'
// boundaries: input cell i is segment i at offset 0, and a scan cell is
// segment InCells+chain at its offset in that chain. Refs ascend within
// a cube, so a ref's chain is found by scanning forward from the
// previous ref's; a binary search runs only when a ref moves backward,
// at a new cube.
func segmentRefs(refs []uint64, starts []uint64) {
	nIn := starts[0]
	sc := 0
	for i, p := range refs {
		pos := p >> 1
		if pos < nIn {
			refs[i] = pos<<32 | p&1
			continue
		}
		if pos < starts[sc] {
			sc = sort.Search(sc, func(c int) bool { return starts[c+1] > pos })
		}
		for pos >= starts[sc+1] {
			sc++
		}
		refs[i] = (nIn+uint64(sc))<<32 | (pos-starts[sc])<<1 | p&1
	}
}

// lowerBound is an admissible (time, volume) lower bound on the point's
// final cost with rem of its patterns cubes still unpriced (and at least
// one priced): every remaining pattern emits at least its si slice
// headers and adds at least max(si, so) cycles. Both sweep schedules
// prune against it mid-pass.
func (pt *tdcPoint) lowerBound(rem, patterns int) (timeLB, volLB int64) {
	timeLB = pt.timeAcc + int64(rem)*max(pt.si, pt.so) + int64(patterns) + pt.so
	return timeLB, (pt.totalCW + int64(rem)*pt.si) * pt.w
}

// config is the point's configuration once a pass over all patterns
// cubes has completed:
//
//	τ = cw_1 + Σ_{j>1} max(cw_j, so) + p + so,  V = codewords × w
func (pt *tdcPoint) config(patterns int) Config {
	return Config{
		Feasible: true,
		UseTDC:   true,
		Codec:    CodecSelEnc,
		Width:    int(pt.w),
		M:        pt.m,
		Time:     pt.timeAcc + int64(patterns) + pt.so,
		Volume:   pt.totalCW * pt.w,
	}
}

// priceWindow prices the loaded window's cubes into pt's accumulators:
// per cube, si slice headers plus the encoding operation count, summed
// into the codeword total and the overlapped-shift time term (cw_1
// plain, max(cw_j, so) beyond). perCW, when non-nil, receives each
// cube's codeword count at its global index.
//
// With a feasible bound, the pass is abandoned — priceWindow returns
// false — as soon as pt's lower bound is strictly lex-worse than bound,
// checked after every cube but the pass's last (whose exact cost the
// caller compares itself). This is exact pruning: the abandoned point's
// true cost is strictly worse than bound.
func (e *Evaluator) priceWindow(pt *tdcPoint, groupCopy bool, bound Config, perCW []int64) bool {
	e.kern.fit(pt)
	si, so := pt.si, pt.so
	for lj := 0; lj < e.win.count; lj++ {
		cw := si + e.patternOps(pt, lj, groupCopy)
		j := e.win.start + lj
		pt.totalCW += cw
		if j == 0 || cw > so {
			pt.timeAcc += cw
		} else {
			pt.timeAcc += so
		}
		if perCW != nil {
			perCW[j] = cw
		}
		if rem := e.patterns - j - 1; bound.Feasible && rem > 0 {
			if bt, bv := pt.lowerBound(rem, e.patterns); boundWorse(bt, bv, bound) {
				return false
			}
		}
	}
	return true
}

// patternOps returns the selective-encoding operation count (codewords
// beyond the per-slice headers) of cube j of the loaded window under
// pt's design — the counting kernel described above. The first pass
// (resolveCells) resolves each ref's cell once into scratch, which the
// second walks.
// Both counting arms are branch-free: a row's fill is the sign bit of
// -balance (ones win only when the balance is positive), a ref is a
// target when its value differs from the fill, and a target adds an
// operation exactly when its slot holds fewer than two — with counts of
// at most 2, c>>1^1. The counters are resliced to the point's span, so
// every write lands in what the reset clears.
func (e *Evaluator) patternOps(pt *tdcPoint, j int, groupCopy bool) int64 {
	refs := e.win.CubeRefs(j)
	if cap(e.kern.at) < len(refs) {
		e.kern.at = make([]kernelSeg, len(refs))
	}
	at := e.kern.at[:len(refs)]
	bal := e.kern.bal[:pt.si]
	resolveCells(at, refs, pt.segs, bal)
	var ops int64
	if groupCopy {
		slot := e.kern.slot[:pt.slots]
		for i, p := range refs {
			c := at[i]
			target := uint8(uint32(-bal[c.row()])>>31) ^ uint8(p&1)
			n := &slot[c.slot()]
			inc := target & (*n>>1 ^ 1)
			*n += inc
			ops += int64(inc)
		}
		if bulkReset(len(slot), len(bal), len(refs)) {
			clear(slot)
			clear(bal)
			return ops
		}
		for _, c := range at {
			slot[c.slot()] = 0
			bal[c.row()] = 0
		}
		return ops
	}
	for i, p := range refs {
		ops += int64(uint32(-bal[at[i].row()])>>31 ^ uint32(p&1))
	}
	if bulkReset(0, len(bal), len(refs)) {
		clear(bal)
		return ops
	}
	for _, c := range at {
		bal[c.row()] = 0
	}
	return ops
}
