// Word-parallel slice kernel: the inner loop of tdcCost. Instead of
// sorting per-pattern (depth, chain) keys, each pattern is materialized
// as two slice-major word planes — a care plane and a value plane, one
// row of ceil(m/64) words per scan-in slice — and priced with popcounts
// and mask walks (see selenc's mask layout). Two strategies build the
// planes, chosen per loaded cube window from its measured care density:
//
//   - dense (d695-class cores): per-cube flat bit planes are built once
//     per window load and shared by every point priced against it (a
//     kept whole-set window keeps them for the whole (w,m) sweep); per
//     design, wrapper StimulusSegments bulk-copy them into chain-major
//     rows and a 64×64 block transpose re-slices them to slice-major. No
//     per-care-bit work inside the sweep at all.
//   - sparse (industrial-class cores): care bits are scattered through
//     the StimulusMap directly into the slice-major planes; only dirty
//     rows are priced and re-zeroed, so work scales with the cube's
//     care-bit count, not the plane size.
//
// Both paths are exact and interchangeable (cross-checked in tests);
// all scratch is owned by the Evaluator and reused across the sweep, so
// steady-state evaluation performs no allocations (gate-enforced by
// `make check`).
package core

import (
	"soctap/internal/bitvec"
	"soctap/internal/selenc"
	"soctap/internal/wrapper"
)

// denseDensityThreshold selects the plane-building strategy: at or
// above this measured care density the cached-flat-plane + transpose
// path wins; below it the scatter path's care-bit-proportional work is
// cheaper than transposing mostly-empty planes.
const denseDensityThreshold = 0.15

// kernelScratch holds the word-kernel state of one Evaluator. All
// buffers grow to high-water marks and are reused across designs. The
// per-window data both kernels read — the flattened care refs and the
// dense path's m-independent flat planes — lives on the evaluator's
// evalWindow (eval.go) so mirrors can share a producer's window while
// owning their own scratch.
type kernelScratch struct {
	prepared *wrapper.Design // design the geometry below belongs to

	// Geometry of the prepared design.
	si         int // scan-in depth: number of slice rows priced
	chainWords int // words per slice row, ceil(m/64)
	siWords    int // words per chain row, ceil(si/64)

	// Sparse path: stimulus map plus dirty-row bookkeeping. The slice
	// planes are all-zero between patterns; scatters dirty rows, the
	// walk prices them, and the clear pass restores the invariant. refs
	// resolves lazily on first sparse use, so dense-only passes never
	// build (or retain) a stimulus map.
	refs  []wrapper.CellRef
	dirty []int32
	mark  []bool

	// Dense path: the chain-major intermediate planes.
	segs       []wrapper.StimulusSegment
	chainCare  []uint64 // [chainWords*64 rows][siWords]
	chainValue []uint64

	// Slice-major planes shared by both paths: [row][chainWords], rows
	// padded to siWords*64 on the dense path so whole transpose blocks
	// can land.
	sliceCare  []uint64
	sliceValue []uint64
	// sliceZeroed tracks the sparse path's all-zero plane invariant.
	// The dense kernel overwrites walked words without restoring them,
	// so — as the strategy may flip between windows — a sparse window
	// after a dense one must first re-zero the planes.
	sliceZeroed bool
}

// kernelPrepare (re)targets the kernel scratch at a wrapper design for
// a pass whose plane-building strategy may differ from window to
// window: both the dense path's segment/transpose state and the sparse
// path's scatter state are targeted at the design, with the slice
// planes at the dense (padded) size — a superset of the sparse layout,
// so either kernel can run against them. Per-cube flat planes are not
// built here; each dense window load builds its own (buildFlatPlanes on
// the shared window). The design's stimulus map and segments are
// deferred to the first sparse or dense pattern that needs them: a
// fused batch holds many designs alive at once, and a map per design is
// only worth its O(stimulus bits) memory when a sparse window actually
// scatters through it, while a sparse-only sweep never needs segments.
// Consecutive calls with the same design are free.
func (e *Evaluator) kernelPrepare(d *wrapper.Design) {
	ks := &e.kern
	if ks.prepared == d {
		return
	}
	ks.prepared = d
	ks.si = d.ScanIn
	ks.chainWords = (d.M + 63) / 64
	ks.siWords = (d.ScanIn + 63) / 64
	ks.segs = nil
	ks.refs = nil

	chainNeed := ks.chainWords * 64 * ks.siWords
	if cap(ks.chainCare) < chainNeed {
		ks.chainCare = make([]uint64, chainNeed)
		ks.chainValue = make([]uint64, chainNeed)
	}
	ks.chainCare = ks.chainCare[:chainNeed]
	ks.chainValue = ks.chainValue[:chainNeed]

	sliceNeed := ks.siWords * 64 * ks.chainWords
	if cap(ks.sliceCare) < sliceNeed {
		ks.sliceCare = make([]uint64, sliceNeed)
		ks.sliceValue = make([]uint64, sliceNeed)
		ks.sliceZeroed = true
	}
	ks.sliceCare = ks.sliceCare[:sliceNeed]
	ks.sliceValue = ks.sliceValue[:sliceNeed]

	if cap(ks.mark) < ks.si {
		ks.mark = make([]bool, ks.si)
		ks.dirty = make([]int32, 0, ks.si)
	}
	ks.mark = ks.mark[:ks.si]
}

// buildFlatPlanes materializes the loaded cube window as dense
// care/value planes in flat stimulus order, recycling the buffers
// across windows — window × flatWords words. The flat layout does not
// depend on m, so every point priced against the window shares them.
func (w *evalWindow) buildFlatPlanes(numBits int) {
	w.flatWords = (numBits + 63) / 64
	n := w.count * w.flatWords
	if cap(w.flatCare) < n {
		w.flatCare = make([]uint64, n)
		w.flatValue = make([]uint64, n)
	} else {
		w.flatCare = w.flatCare[:n]
		w.flatValue = w.flatValue[:n]
		clear(w.flatCare)
		clear(w.flatValue)
	}
	w.scatterFlat()
}

// scatterFlat fills the flat planes from the window's packed care refs.
func (w *evalWindow) scatterFlat() {
	for j := 0; j < w.count; j++ {
		base := j * w.flatWords
		for _, p := range w.CubeRefs(j) {
			pos := int(p >> 1)
			bit := uint64(1) << uint(pos&63)
			w.flatCare[base+pos>>6] |= bit
			if p&1 != 0 {
				w.flatValue[base+pos>>6] |= bit
			}
		}
	}
}

// patternOps returns the selective-encoding operation count (codewords
// beyond the per-slice headers) for cube j under the prepared design.
func (e *Evaluator) patternOps(j int, k int64, groupCopy bool) int64 {
	if e.win.dense {
		return e.patternOpsDense(j, k, groupCopy)
	}
	return e.patternOpsSparse(j, k, groupCopy)
}

// patternOpsDense re-slices cube j with pure word operations: segment
// bulk-copies from the cached flat planes into chain-major rows, then a
// 64×64 block transpose into the slice-major planes.
func (e *Evaluator) patternOpsDense(j int, k int64, groupCopy bool) int64 {
	ks := &e.kern
	win := e.win
	cw, siW := ks.chainWords, ks.siWords
	ks.sliceZeroed = false
	if ks.segs == nil {
		// Deferred from kernelPrepare, like the sparse path's map.
		ks.segs = ks.prepared.StimulusSegments()
	}

	clear(ks.chainCare)
	clear(ks.chainValue)
	fb := j * win.flatWords
	fCare := win.flatCare[fb : fb+win.flatWords]
	fValue := win.flatValue[fb : fb+win.flatWords]
	for _, s := range ks.segs {
		dstOff := s.Chain*siW*64 + s.DepthStart
		bitvec.CopyBits(ks.chainCare, dstOff, fCare, s.FlatStart, s.Len)
		bitvec.CopyBits(ks.chainValue, dstOff, fValue, s.FlatStart, s.Len)
	}

	// Transpose block (cb, db): chain rows [cb*64, cb*64+64) at depth
	// word db become slice rows [db*64, db*64+64) at chain word cb.
	// Every walked slice word is overwritten, so the slice planes need
	// no clearing. Padding chain rows (>= m) are never copied into and
	// stay zero.
	var a, b [64]uint64
	for cb := 0; cb < cw; cb++ {
		rowBase := cb * 64
		for db := 0; db < siW; db++ {
			for i := 0; i < 64; i++ {
				a[i] = ks.chainCare[(rowBase+i)*siW+db]
				b[i] = ks.chainValue[(rowBase+i)*siW+db]
			}
			bitvec.Transpose64(&a)
			bitvec.Transpose64(&b)
			out := db * 64
			for r := 0; r < 64; r++ {
				ks.sliceCare[(out+r)*cw+cb] = a[r]
				ks.sliceValue[(out+r)*cw+cb] = b[r]
			}
		}
	}

	var ops int64
	for row := 0; row < ks.si; row++ {
		o := row * cw
		ops += rowOps(ks.sliceCare[o:o+cw], ks.sliceValue[o:o+cw], k, groupCopy)
	}
	return ops
}

// patternOpsSparse scatters cube j's care bits through the stimulus map
// into the slice-major planes, prices the dirty rows, and re-zeroes
// them so the all-zero invariant holds for the next pattern.
func (e *Evaluator) patternOpsSparse(j int, k int64, groupCopy bool) int64 {
	ks := &e.kern
	cw := ks.chainWords
	if ks.refs == nil {
		// Deferred from kernelPrepare: the design's stimulus
		// map is only materialized once a sparse window needs it (it is
		// sync.Once-cached on the design, so this is allocation-free
		// after the first sparse window per design).
		ks.refs = ks.prepared.StimulusMap()
	}
	if !ks.sliceZeroed {
		// A dense window (or a fresh re-slice over its leavings) broke
		// the all-zero invariant; restore it across the full capacity so
		// later re-slices stay covered too.
		clear(ks.sliceCare[:cap(ks.sliceCare)])
		clear(ks.sliceValue[:cap(ks.sliceValue)])
		ks.sliceZeroed = true
	}
	dirty := ks.dirty[:0]
	for _, p := range e.win.CubeRefs(j) {
		r := ks.refs[p>>1]
		row := int(r.Depth)
		if !ks.mark[row] {
			ks.mark[row] = true
			dirty = append(dirty, int32(row))
		}
		wi := row*cw + int(r.Chain)>>6
		bit := uint64(1) << uint(r.Chain&63)
		ks.sliceCare[wi] |= bit
		if p&1 != 0 {
			ks.sliceValue[wi] |= bit
		}
	}
	var ops int64
	for _, row := range dirty {
		o := int(row) * cw
		ops += rowOps(ks.sliceCare[o:o+cw], ks.sliceValue[o:o+cw], k, groupCopy)
	}
	for _, row := range dirty {
		o := int(row) * cw
		clear(ks.sliceCare[o : o+cw])
		clear(ks.sliceValue[o : o+cw])
		ks.mark[row] = false
	}
	ks.dirty = dirty[:0]
	return ops
}

// rowOps prices one slice row held as care/value word masks. The
// costing itself lives with the encoder it models — see
// selenc.SliceOpsMask, which agrees with selenc.SliceCostMask minus
// the header codeword.
func rowOps(care, value []uint64, k int64, groupCopy bool) int64 {
	return selenc.SliceOpsMask(k, groupCopy, care, value)
}
