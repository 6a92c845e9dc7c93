// Package atevec composes the SOC-level ATE vector image from an
// optimized test plan: per TAM bus, the sequence of per-core stimulus
// streams (packed compressed codewords or raw scan slices) laid out at
// their scheduled start cycles. This is the artifact an ATE program
// generator consumes; its statistics make the paper's memory argument
// concrete — channel depth, stored bits, and bus utilization.
package atevec

import (
	"context"
	"fmt"

	"soctap/internal/bitvec"
	"soctap/internal/core"
	"soctap/internal/cube"
	"soctap/internal/dictenc"
	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

// Segment is one core's stimulus stream on a bus.
type Segment struct {
	Core   string
	Start  int64 // scheduled start cycle
	Cycles int64 // full test span (stimulus delivery + capture + shift-out overlap)
	Wires  int   // wires carrying stimulus (w for compressed, m for direct)
	// Stream is the exact bit traffic of the segment's stimulus part,
	// in delivery order.
	Stream *bitvec.Vector
}

// Bus is the vector image of one TAM bus.
type Bus struct {
	Width    int
	Segments []Segment
}

// Image is the complete SOC vector image.
type Image struct {
	Design string
	Depth  int64 // schedule makespan = vector depth
	Buses  []Bus
}

// Build composes the image for an optimized plan by re-encoding every
// core's test set under its chosen configuration.
func Build(res *core.Result) (*Image, error) {
	if res == nil || res.SOC == nil {
		return nil, fmt.Errorf("atevec: plan has no result or SOC")
	}
	im := &Image{Design: res.SOC.Name, Depth: res.TestTime}
	im.Buses = make([]Bus, len(res.Partition))
	for b, w := range res.Partition {
		im.Buses[b].Width = w
	}
	for _, ch := range res.Choices {
		c := res.SOC.CoreByName(ch.Core)
		if c == nil {
			return nil, fmt.Errorf("atevec: unknown core %q", ch.Core)
		}
		if ch.Bus < 0 || ch.Bus >= len(im.Buses) {
			return nil, fmt.Errorf("atevec: core %s on bus %d of a %d-bus partition", ch.Core, ch.Bus, len(im.Buses))
		}
		stream, err := coreStream(c, ch.Config)
		if err != nil {
			return nil, err
		}
		im.Buses[ch.Bus].Segments = append(im.Buses[ch.Bus].Segments, Segment{
			Core:   ch.Core,
			Start:  ch.Start,
			Cycles: ch.Config.Time,
			Wires:  ch.Config.Width,
			Stream: stream,
		})
	}
	return im, nil
}

// coreStream re-encodes one core's stimuli under a configuration. The
// cubes come from soc.Core.Cubes, so a streamed core is pulled one
// pattern at a time: each codec holds only O(pattern) scratch beyond
// the output stream itself (the dictionary codec also its dictionary,
// trained in a first pass over the cubes), and giant cores re-encode
// without their test set ever being resident.
func coreStream(c *soc.Core, cfg core.Config) (*bitvec.Vector, error) {
	d, err := wrapper.New(c, cfg.M)
	if err != nil {
		return nil, err
	}
	src, err := c.Cubes()
	if err != nil {
		return nil, err
	}
	switch cfg.Codec {
	case core.CodecSelEnc:
		enc := NewEncoder(d)
		stream := new(bitvec.Vector)
		for cb, ok := src.Next(); ok; cb, ok = src.Next() {
			stream.Append(enc.Encode(cb))
		}
		return stream, nil
	case core.CodecDict:
		_, stream, err := DictStream(d, src, cfg.DictWords)
		return stream, err
	case core.CodecDirect:
		// Raw scan slices, X filled with 0, slice-major delivery. Each
		// care bit's output position follows from its (chain, depth)
		// cell directly, so no per-slice staging is needed.
		refs := d.StimulusMap()
		v := bitvec.New(src.Len() * d.ScanIn * cfg.M)
		for pi := 0; ; pi++ {
			cb, ok := src.Next()
			if !ok {
				break
			}
			base := pi * d.ScanIn * cfg.M
			for _, bit := range cb.Care {
				if r := refs[bit.Pos]; bit.Value {
					v.Set(base+int(r.Depth)*cfg.M+int(r.Chain), true)
				}
			}
		}
		return v, nil
	default:
		return nil, fmt.Errorf("atevec: unknown codec %q for core %s", cfg.Codec, c.Name)
	}
}

// Encoder produces a core's selective-encoding stream one pattern at a
// time: each pattern's care bits are scattered into its scan slices as
// word masks (wrapper.Slicer), every slice's pairs are encoded by
// selenc.AppendEncodeSlice, and the codewords are packed as they cross
// the TAM. Build concatenates these per-pattern streams into the image,
// and the simulator decodes the same bits, so what is verified is what
// ships. All scratch is reused across patterns.
type Encoder struct {
	m    int
	si   int
	sl   *wrapper.Slicer
	cws  []selenc.Codeword
	bits bitvec.Vector
}

// NewEncoder returns an encoder for the wrapper design's core at the
// design's m wrapper chains.
func NewEncoder(d *wrapper.Design) *Encoder {
	return &Encoder{m: d.M, si: d.ScanIn, sl: wrapper.NewSlicer(d)}
}

// Encode returns the packed codewords of one pattern, its ScanIn slices
// in scan-in order. The vector is reused by the next call.
func (e *Encoder) Encode(cb *cube.Cube) *bitvec.Vector {
	e.sl.Scatter(cb)
	e.cws = e.cws[:0]
	for d := range e.si {
		e.cws = selenc.AppendEncodeSlice(e.cws, e.m, e.sl.Slice(d))
	}
	selenc.PackStream(&e.bits, e.m, e.cws)
	return &e.bits
}

// DictStream builds the dictionary codec's stream for one pass of src
// under the wrapper design (dictenc.Encode): every scan slice of the
// pass trains a dictionary of at most words entries, then src is
// rewound and each slice is coded in pattern order. It returns the
// dictionary, which the ATE downloads once, and the packed stream.
func DictStream(d *wrapper.Design, src cube.Source, words int) (*dictenc.Dictionary, *bitvec.Vector, error) {
	stream := new(bitvec.Vector)
	dict, err := dictenc.Encode(context.TODO(), d, src, []int{words}, nil, stream)
	if err != nil {
		return nil, nil, err
	}
	return dict, stream, nil
}

// Stats summarizes the image's ATE footprint.
type Stats struct {
	Depth        int64   // vector depth (schedule makespan)
	ChannelBits  int64   // total capacity: Σ busWidth × depth
	StoredBits   int64   // stimulus bits actually stored
	Utilization  float64 // StoredBits / ChannelBits
	Segments     int
	WidestStream int64 // largest single-core stream, bits
}

// ComputeStats derives the image statistics.
func (im *Image) ComputeStats() Stats {
	st := Stats{Depth: im.Depth}
	for _, b := range im.Buses {
		st.ChannelBits += int64(b.Width) * im.Depth
		for _, s := range b.Segments {
			st.Segments++
			bits := int64(s.Stream.Len())
			st.StoredBits += bits
			if bits > st.WidestStream {
				st.WidestStream = bits
			}
		}
	}
	if st.ChannelBits > 0 {
		st.Utilization = float64(st.StoredBits) / float64(st.ChannelBits)
	}
	return st
}

// Validate checks the image's structural invariants: segments within
// the schedule depth, no overlap on a bus, stream wires within bus
// width, and stream lengths consistent with the per-core wire counts.
func (im *Image) Validate() error {
	for bi, b := range im.Buses {
		var end int64
		for _, s := range sortedByStart(b.Segments) {
			if s.Start < end {
				return fmt.Errorf("atevec: bus %d: segment %s overlaps previous", bi, s.Core)
			}
			end = s.Start + s.Cycles
			if end > im.Depth {
				return fmt.Errorf("atevec: bus %d: segment %s exceeds image depth", bi, s.Core)
			}
			if s.Wires > b.Width {
				return fmt.Errorf("atevec: bus %d: segment %s uses %d wires on a %d-wide bus",
					bi, s.Core, s.Wires, b.Width)
			}
			// The stimulus stream must fit the segment's delivery
			// window at its wire count.
			if int64(s.Stream.Len()) > s.Cycles*int64(s.Wires) {
				return fmt.Errorf("atevec: bus %d: segment %s stream (%d bits) exceeds window (%d cycles x %d wires)",
					bi, s.Core, s.Stream.Len(), s.Cycles, s.Wires)
			}
		}
	}
	return nil
}

func sortedByStart(segs []Segment) []Segment {
	out := append([]Segment(nil), segs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Start > out[j].Start; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
