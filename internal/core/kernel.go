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
// a design's point table holds one (row, slot) base per segment, so a
// cell lands at row base+offset and slot base+offset. Slots are
// group-major — base[chain/k] + row, base the prefix sum of each codec
// group's deepest chain — so the slot counters never outnumber the
// stimulus cells. The kernel then walks a cube's refs three times —
//
//  1. resolve each ref's row and slot once, and tally the row's
//     balance, ones minus zeros;
//  2. take the row's fill (balance > 0: ones win, ties go to 0, exactly
//     as selenc.ChooseFill) and count every target bit into its slot,
//     adding an operation on a slot's first and second target with
//     group copy, or on every target without — branch-free in both arms;
//  3. re-zero the touched row and slot counters.
//
// Work is proportional to the cube's care bits, whatever the design's
// depth or width, and a new design costs its wrapper plus O(inputs +
// scan chains) table entries — no table has one entry per stimulus
// cell. The point table is written into recycled storage and the
// counters are Evaluator scratch grown to high-water marks and all-zero
// between cubes, so steady-state pricing allocates nothing
// (gate-enforced by `make check`). The kernel is exact: the
// real-encoder cross-checks and the golden tables are its oracle.
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
	at   []kernelSeg // per care ref of the cube: its row and slot
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

// kernelSeg is where a segment's first cell lands in every cube: its
// slice row (wrapper depth) and its counter slot, base[chain/k] + row,
// where base is the prefix sum of each codec group's deepest chain. The
// cell at offset o of the segment lands at row+o and slot+o.
type kernelSeg struct{ row, slot int32 }

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
			segs[in] = kernelSeg{row: x, slot: base + x}
			in++
		}
		row := int32(ch.InCells)
		for _, sc := range ch.ScanChains {
			segs[nIn+sc] = kernelSeg{row: row, slot: base + row}
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
// segment InCells+chain at its offset in that chain. Consecutive refs
// usually share a chain, so a binary search runs only when a ref leaves
// the previous ref's chain.
func segmentRefs(refs []uint64, starts []uint64) {
	nIn := starts[0]
	sc := 0
	for i, p := range refs {
		pos := p >> 1
		if pos < nIn {
			refs[i] = pos<<32 | p&1
			continue
		}
		if pos < starts[sc] || pos >= starts[sc+1] {
			sc = sort.Search(len(starts)-1, func(c int) bool { return starts[c+1] > pos })
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
// resolves each ref's (row, slot) once into scratch, which the other
// two walk. Both counting arms are branch-free: a row's fill is the
// sign bit of -balance (ones win only when the balance is positive), a
// ref is a target when its value differs from the fill, and a target
// adds an operation exactly when its slot holds fewer than two — with
// counts of at most 2, c>>1^1.
func (e *Evaluator) patternOps(pt *tdcPoint, j int, groupCopy bool) int64 {
	refs := e.win.CubeRefs(j)
	if cap(e.kern.at) < len(refs) {
		e.kern.at = make([]kernelSeg, len(refs))
	}
	at := e.kern.at[:len(refs)]
	segs := pt.segs
	bal := e.kern.bal
	for i, p := range refs {
		s, off := segs[p>>32], int32(uint32(p)>>1)
		s.row += off
		s.slot += off
		at[i] = s
		bal[s.row] += int32(p&1)<<1 - 1
	}
	var ops int64
	if groupCopy {
		slot := e.kern.slot
		for i, p := range refs {
			s := at[i]
			target := uint8(uint32(-bal[s.row])>>31) ^ uint8(p&1)
			c := &slot[s.slot]
			inc := target & (*c>>1 ^ 1)
			*c += inc
			ops += int64(inc)
		}
		for _, s := range at {
			slot[s.slot] = 0
			bal[s.row] = 0
		}
		return ops
	}
	for i, p := range refs {
		ops += int64(uint32(-bal[at[i].row])>>31 ^ uint32(p&1))
	}
	for _, s := range at {
		bal[s.row] = 0
	}
	return ops
}
