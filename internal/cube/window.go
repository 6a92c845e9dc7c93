package cube

// Window is a flattened run of consecutive cubes from one pass of a
// Source: every care bit is packed as pos<<1|value in Refs, and cube j
// of the window owns Refs[Off[j]:Off[j+1]] (Off carries a final
// sentinel). This is the single-traversal fan-out point of the
// streaming evaluator — one producer loads a Window from the source,
// then any number of read-only consumers price the same loaded cubes
// without ever touching the Source, so a fused sweep streams the test
// set once per batch of evaluation points instead of once per point.
//
// A Window's buffers are recycled across loads; consumers must not
// retain slices into Refs/Off past the next Load/Reset. Loading is the
// producer's alone; concurrent readers are safe between loads. The
// producer owns Refs after a load: the evaluator re-encodes them in
// place into its own segment form before any reader prices them.
type Window struct {
	Refs []uint64
	Off  []int
}

// Reset empties the window, keeping capacity.
func (w *Window) Reset() {
	w.Refs = w.Refs[:0]
	w.Off = w.Off[:0]
}

// AppendCube flattens one cube into the window. Seal must be called
// after the last append before the window is read.
func (w *Window) AppendCube(c *Cube) {
	w.Off = append(w.Off, len(w.Refs))
	for _, bit := range c.Care {
		r := uint64(bit.Pos) << 1
		if bit.Value {
			r |= 1
		}
		w.Refs = append(w.Refs, r)
	}
}

// Seal closes the window with the sentinel offset.
func (w *Window) Seal() {
	w.Off = append(w.Off, len(w.Refs))
}

// Load resets the window, pulls up to max cubes from src in one
// traversal, seals, and returns the number loaded.
func (w *Window) Load(src Source, max int) int {
	w.Reset()
	n := 0
	for n < max {
		c, ok := src.Next()
		if !ok {
			break
		}
		w.AppendCube(c)
		n++
	}
	w.Seal()
	return n
}

// Len returns the number of cubes loaded.
func (w *Window) Len() int {
	if len(w.Off) == 0 {
		return 0
	}
	return len(w.Off) - 1
}

// CubeRefs returns cube j's packed care refs.
func (w *Window) CubeRefs(j int) []uint64 { return w.Refs[w.Off[j]:w.Off[j+1]] }
