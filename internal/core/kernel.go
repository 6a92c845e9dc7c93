// Counting slice kernel: the inner loop of every TDC evaluation. Under
// selective encoding a scan slice costs one header plus, per k-bit
// codec group holding t target bits, min(t, 2) operation codewords (t
// without group copy), where the targets are the care bits that differ
// from the slice's majority fill. Every term is a count, so the kernel
// never materializes a slice: it walks a cube's packed care refs three
// times —
//
//  1. map each ref through the design's StimulusMap to its slice row
//     (Depth) and tally the row's ones-minus-zeros balance;
//  2. take the row's fill (balance > 0: ones win, ties go to 0, exactly
//     as selenc.ChooseFillMask) and count every target bit into its
//     (row, group) slot, adding an operation on a slot's first and
//     second target with group copy, or on every target without;
//  3. re-zero the touched row and slot counters.
//
// Work is proportional to the cube's care bits, whatever the design's
// depth or width. The stimulus map and the chain → group table are
// folded once per design into one (row, slot) cell table that travels
// with the evaluation point; the counters are Evaluator scratch grown
// to high-water marks and all-zero between cubes, so steady-state
// pricing allocates nothing
// (gate-enforced by `make check`). The kernel is exact: the
// real-encoder cross-checks and the golden tables are its oracle.
package core

import (
	"soctap/internal/selenc"
	"soctap/internal/wrapper"
)

// kernelScratch holds the counters of one Evaluator's counting kernel.
// Both are all-zero between cubes; the per-window data the kernel reads
// (the flattened care refs) lives on the evaluator's evalWindow (eval.go)
// so mirrors can share a producer's window while owning their counters.
type kernelScratch struct {
	bal  []int32 // per slice row: ones minus zeros among its care bits
	slot []uint8 // per (row, group): target bits counted, saturating at 2
}

// fit grows the counters to cover pt's design.
func (ks *kernelScratch) fit(pt *tdcPoint) {
	if rows := int(pt.si); len(ks.bal) < rows {
		ks.bal = make([]int32, rows)
	}
	if n := int(pt.si) * pt.groups; len(ks.slot) < n {
		ks.slot = make([]uint8, n)
	}
}

// tdcPoint is one (w, m) evaluation in progress: the table the counting
// kernel reads for its wrapper design, the design's cost-model
// constants, and the running accumulators of one pass over the cubes.
// It does not retain the design, so a fused batch holds one table per
// point, not the design's stimulus map as well.
type tdcPoint struct {
	m      int          // wrapper chains
	cells  []kernelCell // per stimulus cell, in flat order
	groups int          // codec groups per slice, selenc.GroupCount(m)
	si, so int64        // scan-in and scan-out depth
	w      int64        // codeword width, selenc.CodewordWidth(m)

	totalCW int64 // codewords emitted so far
	timeAcc int64 // cw_1 + Σ_{j>1} max(cw_j, so) so far
}

// kernelCell is where one stimulus cell lands in every cube: its slice
// row (wrapper depth) and its (row, group) counter slot,
// row·GroupCount(m) + chain/k.
type kernelCell struct{ row, slot int32 }

// newTDCPoint maps design d's stimulus cells through its StimulusMap and
// a chain → group table, reusing cells' storage when it is large enough.
func newTDCPoint(d *wrapper.Design, cells []kernelCell) tdcPoint {
	k := selenc.PayloadBits(d.M)
	g := selenc.GroupCount(d.M)
	group := make([]int32, d.M)
	for ch := range group {
		group[ch] = int32(ch / k)
	}
	refs := d.StimulusMap()
	if cap(cells) < len(refs) {
		cells = make([]kernelCell, len(refs))
	}
	cells = cells[:len(refs)]
	for i, r := range refs {
		cells[i] = kernelCell{row: r.Depth, slot: r.Depth*int32(g) + group[r.Chain]}
	}
	return tdcPoint{
		m:      d.M,
		cells:  cells,
		groups: g,
		si:     int64(d.ScanIn),
		so:     int64(d.ScanOut),
		w:      int64(k + 2),
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
// pt's design — the counting kernel described above.
func (e *Evaluator) patternOps(pt *tdcPoint, j int, groupCopy bool) int64 {
	refs := e.win.CubeRefs(j)
	cells := pt.cells
	bal := e.kern.bal
	for _, p := range refs {
		bal[cells[p>>1].row] += int32(p&1)<<1 - 1
	}
	var ops int64
	if groupCopy {
		slot := e.kern.slot
		for _, p := range refs {
			c := cells[p>>1]
			if (bal[c.row] > 0) != (p&1 != 0) {
				if slot[c.slot] < 2 {
					slot[c.slot]++
					ops++
				}
			}
		}
		for _, p := range refs {
			c := cells[p>>1]
			slot[c.slot] = 0
			bal[c.row] = 0
		}
		return ops
	}
	for _, p := range refs {
		if (bal[cells[p>>1].row] > 0) != (p&1 != 0) {
			ops++
		}
	}
	for _, p := range refs {
		bal[cells[p>>1].row] = 0
	}
	return ops
}
