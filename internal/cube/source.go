package cube

import (
	"math"
	"math/rand"
)

// Source is a pull-based, replayable cube stream: the test set of one
// core delivered one cube at a time, in pattern order. It is the
// memory-scaling contract of the streaming evaluator — a consumer that
// prices cubes window-by-window holds O(window) cubes instead of the
// whole set. Implementations are deterministic: every pass after a
// Reset yields the identical cube sequence.
//
// A Source is not safe for concurrent use; concurrent consumers each
// take their own (see Core.TestSource).
type Source interface {
	// NumBits returns the stimulus width shared by every cube.
	NumBits() int
	// Len returns the total number of cubes the stream yields per pass.
	Len() int
	// Next returns the next cube and true, or nil and false once the
	// pass is exhausted. The returned cube is owned by the caller until
	// the next Next call at the earliest; it must not be retained as
	// mutable storage across Reset.
	Next() (*Cube, bool)
	// Reset rewinds the stream to the first cube.
	Reset()
}

// SetSource adapts a materialized *Set to the Source interface. Cubes
// are handed out by reference; callers must treat them as read-only.
type SetSource struct {
	set *Set
	i   int
}

// NewSetSource returns a Source iterating over the set in order.
func NewSetSource(s *Set) *SetSource { return &SetSource{set: s} }

func (ss *SetSource) NumBits() int { return ss.set.NumBits }
func (ss *SetSource) Len() int     { return len(ss.set.Cubes) }
func (ss *SetSource) Reset()       { ss.i = 0 }

func (ss *SetSource) Next() (*Cube, bool) {
	if ss.i >= len(ss.set.Cubes) {
		return nil, false
	}
	c := ss.set.Cubes[ss.i]
	ss.i++
	return c, true
}

// Generator is the streaming form of Generate: the deterministic
// synthetic producer behind GenSpec, yielding one cube per Next without
// ever materializing the set. A full pass consumes the spec's random
// stream exactly as Generate does, so for any spec
//
//	Generate(g) == collect(NewGenerator(g))
//
// cube for cube (asserted by TestGeneratorMatchesGenerate), and Reset
// replays the identical sequence. This is what lets a million-cube test
// set flow through the evaluator at O(window) residency.
type Generator struct {
	spec       GenSpec
	decay      float64
	clustering float64
	oneBias    float64
	chainStart []int

	rng *rand.Rand
	i   int

	// seen is a bitset of NumBits bits marking the care positions of the
	// cube being drawn, cleared word by word from its care bits after
	// each cube; keys holds that cube's care bits as pos<<1|value. Both
	// are reused across cubes: seen is NumBits/8 bytes, an eighth of the
	// counting kernel's slot scratch bound of StimulusBits() bytes.
	seen []uint64
	keys []uint64
}

// NewGenerator validates the spec and positions the stream before the
// first cube.
func NewGenerator(g GenSpec) (*Generator, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	oneBias := g.OneBias
	if oneBias <= 0 || oneBias >= 1 {
		oneBias = 0.4 // ATPG cubes skew slightly toward 0 justification
	}
	gen := &Generator{
		spec:       g,
		decay:      clamp01(g.DensityDecay),
		clustering: clamp01(g.Clustering),
		oneBias:    oneBias,
		seen:       make([]uint64, (g.NumBits+63)/64),
	}
	if len(g.Geometry) > 0 {
		gen.chainStart = make([]int, len(g.Geometry))
		off := g.IOCells
		for i, l := range g.Geometry {
			gen.chainStart[i] = off
			off += l
		}
	}
	gen.Reset()
	return gen, nil
}

func (gen *Generator) NumBits() int { return gen.spec.NumBits }
func (gen *Generator) Len() int     { return gen.spec.Patterns }

// Reset rewinds to the first cube by reseeding the random stream.
func (gen *Generator) Reset() {
	gen.rng = rand.New(rand.NewSource(gen.spec.Seed))
	gen.i = 0
}

// Next produces the next cube of the deterministic sequence.
func (gen *Generator) Next() (*Cube, bool) {
	if gen.i >= gen.spec.Patterns {
		return nil, false
	}
	g := gen.spec
	// Per-pattern density profile: d(i) = base * (1 + decay*(1 - 2*i/p))
	// so the mean over the set equals g.Density; with decay=1 the first
	// pattern is ~2x the mean and the tail ~0.5x.
	frac := 0.0
	if g.Patterns > 1 {
		frac = float64(gen.i) / float64(g.Patterns-1)
	}
	d := g.Density * (1 + gen.decay*(1-2*frac))
	if d <= 0 {
		d = g.Density * 0.05
	}
	d = min(d, 1)
	nCare := min(max(int(math.Round(d*float64(g.NumBits))), 1), g.NumBits)
	var c *Cube
	if gen.chainStart != nil {
		c = gen.scanCube(nCare)
	} else {
		c = gen.flatCube(nCare)
	}
	gen.i++
	return c, true
}
