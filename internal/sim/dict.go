package sim

import (
	"fmt"

	"soctap/internal/atevec"
	"soctap/internal/bitvec"
	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

// RunDictCore simulates the complete dictionary-compressed test of one
// core: the dictionary and stream are built exactly as the ATE image
// ships them (atevec.DictStream, capacity dictWords), the stream is
// decoded slice by slice into one reused vector, and each delivered
// slice is checked against the care bits its cube loads at that scan
// depth. A pattern's b stream bits arrive over W wires in
// max(ceil(b/W), scan-in depth) cycles, which enter the test time as in
// RunTDCCore.
func RunDictCore(c *soc.Core, m, dictWords int) (*CoreReport, error) {
	d, err := wrapper.New(c, m)
	if err != nil {
		return nil, err
	}
	src, err := c.Cubes()
	if err != nil {
		return nil, err
	}
	dict, stream, err := atevec.DictStream(d, src, dictWords)
	if err != nil {
		return nil, err
	}
	rep := &CoreReport{Core: c.Name, M: m, W: 1 + dict.IndexBits(), Patterns: src.Len()}
	want := newExpected(d)
	si, so := int64(d.ScanIn), int64(d.ScanOut)
	var slice bitvec.Vector
	off := 0
	src.Reset()
	for pi := 0; ; pi++ {
		cb, ok := src.Next()
		if !ok {
			break
		}
		want.load(cb)
		start := off
		for depth := 0; depth < d.ScanIn; depth++ {
			off, err = dict.Decode(stream, off, &slice)
			if err != nil {
				return nil, fmt.Errorf("sim: core %s pattern %d slice %d: %w", c.Name, pi, depth, err)
			}
			rep.Mismatches += want.check(depth, &slice)
			rep.Slices++
		}
		cycles := max((int64(off-start)+int64(rep.W)-1)/int64(rep.W), si)
		if pi > 0 {
			cycles = max(cycles, so)
		}
		rep.Time += cycles
	}
	if off != stream.Len() {
		return nil, fmt.Errorf("sim: core %s: %d of %d stream bits consumed", c.Name, off, stream.Len())
	}
	rep.Time += int64(rep.Patterns) + so
	// The stream plus the one-time dictionary download is the ATE
	// volume the planner charges.
	rep.VolumeBits = int64(stream.Len()) + int64(len(dict.Words)*m)
	return rep, nil
}
