package cube

import (
	"fmt"
	"math"
	"slices"
)

// GenSpec parameterizes the deterministic synthetic cube generator. The
// generator imitates the statistical structure of ATPG-compacted test
// cubes for scan designs:
//
//   - care bits cluster around logic "cones" (structurally related scan
//     cells) rather than spreading uniformly;
//   - early patterns are dense (they target many easy faults after
//     static compaction), late patterns are sparse top-offs;
//   - specified values are locally correlated (a cone tends to be
//     justified with runs of equal values).
//
// When the scan Geometry is provided, cones are placed in (scan chain,
// depth) coordinates: a cluster occupies a small rectangle of adjacent
// scan chains at nearby scan depths. This is the scan-slice clustering
// regime that slice-based compression schemes (selective encoding, LFSR
// reseeding with scan slices) are designed to exploit, and matches the
// published behaviour of industrial compression-ready cores. Without
// geometry, clusters are placed over flat cell indices.
//
// All randomness derives from Seed, so a spec always generates the same
// test set — whether materialized at once by Generate or pulled one
// cube at a time from a Generator.
type GenSpec struct {
	NumBits  int     // stimulus bits per pattern (wrapper inputs + scan cells)
	Patterns int     // number of test cubes
	Density  float64 // target mean care-bit density over the whole set, (0,1]
	// DensityDecay controls how much denser early patterns are than late
	// ones. 0 means uniform; 1 means the first pattern is roughly 3x the
	// density of the last. Values outside [0,1] are clamped.
	DensityDecay float64
	// Clustering in [0,1]: 0 scatters care bits uniformly, 1 concentrates
	// them tightly around a few cone centers.
	Clustering float64
	// OneBias is the probability that a cone's dominant value is 1.
	// Within a cone, ~85% of care bits take the dominant value.
	OneBias float64
	Seed    int64

	// Geometry optionally lists the core's scan chain lengths; the flat
	// stimulus layout is then [IOCells wrapper-input cells][chain 0]
	// [chain 1]... and clusters span adjacent chains at equal depth.
	Geometry []int
	// IOCells is the number of leading flat positions holding wrapper
	// input cells (only meaningful with Geometry).
	IOCells int
}

// Structural bounds on generated test sets. Per-field limits line up
// with the soc package's parse-time bounds (MaxStimulusBits,
// MaxPatterns); the total-bits product is the giant-spec guard — it is
// computed in int64 so that a spec with both fields near their caps is
// rejected by arithmetic that cannot itself overflow.
const (
	MaxNumBits   = 1 << 28 // == soc.MaxStimulusBits
	MaxPatterns  = 1 << 26 // == soc.MaxPatterns
	MaxTotalBits = 1 << 48 // NumBits × Patterns ceiling (raw image bits)
)

// Validate checks the spec for consistency.
func (g GenSpec) Validate() error {
	if g.NumBits <= 0 {
		return fmt.Errorf("cube: GenSpec.NumBits = %d, must be > 0", g.NumBits)
	}
	if g.NumBits > MaxNumBits {
		return fmt.Errorf("cube: GenSpec.NumBits = %d exceeds limit %d", g.NumBits, MaxNumBits)
	}
	if g.Patterns <= 0 {
		return fmt.Errorf("cube: GenSpec.Patterns = %d, must be > 0", g.Patterns)
	}
	if g.Patterns > MaxPatterns {
		return fmt.Errorf("cube: GenSpec.Patterns = %d exceeds limit %d", g.Patterns, MaxPatterns)
	}
	if total := int64(g.NumBits) * int64(g.Patterns); total > MaxTotalBits {
		return fmt.Errorf("cube: GenSpec total %d × %d = %d raw bits exceeds limit %d",
			g.NumBits, g.Patterns, total, int64(MaxTotalBits))
	}
	// The positive form also rejects NaN (which compares false to
	// everything and would otherwise slip through to the placement
	// arithmetic).
	if !(g.Density > 0 && g.Density <= 1) {
		return fmt.Errorf("cube: GenSpec.Density = %g, must be in (0,1]", g.Density)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"DensityDecay", g.DensityDecay}, {"Clustering", g.Clustering}, {"OneBias", g.OneBias}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("cube: GenSpec.%s = %g, must be finite", f.name, f.v)
		}
	}
	if len(g.Geometry) > 0 {
		total := g.IOCells
		for i, l := range g.Geometry {
			if l <= 0 {
				return fmt.Errorf("cube: GenSpec.Geometry[%d] = %d", i, l)
			}
			total += l
		}
		if g.IOCells < 0 || total != g.NumBits {
			return fmt.Errorf("cube: geometry covers %d cells, NumBits is %d", total, g.NumBits)
		}
	}
	return nil
}

// Generate produces the deterministic synthetic test set described by
// the spec, materialized as a *Set. It is a thin adapter over the
// streaming Generator — collecting the same cube sequence a Generator
// yields — kept for the one caller that keeps the whole set resident,
// soc.Core.TestSet, whose cached set serves every multi-pass consumer
// of a core below the streaming threshold. Scale-sensitive paths
// should pull from NewGenerator instead.
func Generate(g GenSpec) (*Set, error) {
	gen, err := NewGenerator(g)
	if err != nil {
		return nil, err
	}
	set := NewSet(g.NumBits)
	set.Cubes = make([]*Cube, 0, g.Patterns)
	for {
		c, ok := gen.Next()
		if !ok {
			break
		}
		set.Cubes = append(set.Cubes, c)
	}
	return set, nil
}

// place records one care bit of the cube being drawn: its position in
// the seen bitset, and pos<<1|value in the key buffer. Call sites check
// seen first, so positions are unique within a cube, and finish sorts
// the keys once placement is done. This keeps per-cube cost
// O(care log care) instead of the O(care²) of Cube.Set's sorted insert
// — the difference between minutes and hours on a million-cube giant
// set.
func (gen *Generator) place(pos int, v bool) {
	gen.seen[pos>>6] |= 1 << (pos & 63)
	key := uint64(pos) << 1
	if v {
		key |= 1
	}
	gen.keys = append(gen.keys, key)
}

// taken reports whether pos already holds a care bit of the cube being
// drawn.
func (gen *Generator) taken(pos int) bool {
	return gen.seen[pos>>6]&(1<<(pos&63)) != 0
}

// finish returns the drawn care bits as a cube, sorted by position
// (positions are unique, so sorting the packed keys orders the bits),
// and clears the seen words they set, leaving the bitset all-zero for
// the next cube.
func (gen *Generator) finish() *Cube {
	slices.Sort(gen.keys)
	c := NewCube(gen.spec.NumBits)
	c.Care = make([]CareBit, len(gen.keys))
	for i, key := range gen.keys {
		c.Care[i] = CareBit{Pos: int(key >> 1), Value: key&1 == 1}
		gen.seen[key>>7] = 0
	}
	gen.keys = gen.keys[:0]
	return c
}

// scanCube places clusters in (chain, depth) coordinates: each cluster
// is a rectangle of adjacent chains at nearby depths, the scan-slice
// clustering regime. IO cells receive a proportional share of uniformly
// scattered care bits.
func (gen *Generator) scanCube(nCare int) *Cube {
	rng, g, oneBias := gen.rng, gen.spec, gen.oneBias
	nChains := len(g.Geometry)

	// IO share of the care bits, scattered uniformly.
	ioCare := 0
	if g.IOCells > 0 {
		ioCare = nCare * g.IOCells / g.NumBits
	}
	placed := 0
	for tries := 0; placed < ioCare && tries < ioCare*40; tries++ {
		pos := rng.Intn(g.IOCells)
		if gen.taken(pos) {
			continue
		}
		gen.place(pos, rng.Float64() < oneBias)
		placed++
	}

	// Cluster shape: span across chains shrinks as clustering weakens
	// (scattering degenerates to single cells).
	meanSpan := 2 + gen.clustering*14 // chains per cluster at full clustering: ~16
	for attempts := 0; placed < nCare && attempts < nCare*40; attempts++ {
		span := 1 + rng.Intn(int(meanSpan))
		if span > nChains {
			span = nChains
		}
		c0 := rng.Intn(nChains - span + 1)
		depthSpan := 1 + rng.Intn(2)
		// Depth anchored within the shortest chain of the rectangle.
		minLen := g.Geometry[c0]
		for ch := c0; ch < c0+span; ch++ {
			if g.Geometry[ch] < minLen {
				minLen = g.Geometry[ch]
			}
		}
		if minLen <= depthSpan {
			depthSpan = 1
		}
		d0 := rng.Intn(max(1, minLen-depthSpan+1))
		domVal := rng.Float64() < oneBias
		for ch := c0; ch < c0+span && placed < nCare; ch++ {
			for dd := 0; dd < depthSpan && placed < nCare; dd++ {
				d := d0 + dd
				if d >= g.Geometry[ch] {
					continue
				}
				// Clusters are dense but not solid.
				if rng.Float64() > 0.8 {
					continue
				}
				pos := gen.chainStart[ch] + d
				if gen.taken(pos) {
					continue
				}
				v := domVal
				if rng.Float64() > 0.85 {
					v = !v
				}
				gen.place(pos, v)
				placed++
			}
		}
	}
	gen.fillRemaining(nCare, placed)
	return gen.finish()
}

// flatCube draws one cube with nCare specified bits clustered over flat
// cell indices.
func (gen *Generator) flatCube(nCare int) *Cube {
	rng, numBits, clustering := gen.rng, gen.spec.NumBits, gen.clustering

	// Number of cone centers: fewer cones = stronger clustering. At
	// clustering=0 every care bit is its own "cone" (uniform scatter).
	nCones := 1 + int(float64(nCare)*math.Pow(1-clustering, 2))
	if nCones > nCare {
		nCones = nCare
	}
	type cone struct {
		center int
		spread float64
		domVal bool
	}
	cones := make([]cone, nCones)
	for i := range cones {
		cones[i] = cone{
			center: rng.Intn(numBits),
			// Tight spreads at high clustering: ~0.2% of the core at
			// clustering=1, ~20% at clustering=0.
			spread: float64(numBits) * (0.002 + 0.2*(1-clustering)),
			domVal: rng.Float64() < gen.oneBias,
		}
	}

	placed := 0
	for attempts := 0; placed < nCare && attempts < nCare*50; attempts++ {
		co := cones[rng.Intn(nCones)]
		pos := co.center + int(rng.NormFloat64()*co.spread)
		if pos < 0 || pos >= numBits || gen.taken(pos) {
			continue
		}
		v := co.domVal
		if rng.Float64() > 0.85 {
			v = !v
		}
		gen.place(pos, v)
		placed++
	}
	gen.fillRemaining(nCare, placed)
	return gen.finish()
}

// fillRemaining linearly scans for free cells when random placement
// saturates (tiny cores or density ~1).
func (gen *Generator) fillRemaining(nCare, placed int) {
	for pos := 0; placed < nCare && pos < gen.spec.NumBits; pos++ {
		if gen.taken(pos) {
			continue
		}
		gen.place(pos, gen.rng.Float64() < gen.oneBias)
		placed++
	}
}

// clamp01 confines x to [0,1]. The !(x >= 0) form maps NaN to 0 rather
// than letting it poison the downstream arithmetic (rand.Intn(int(NaN))
// panics) — which is why this is not simply min(1, max(0, x)): the
// float builtins propagate NaN.
func clamp01(x float64) float64 {
	if !(x >= 0) {
		return 0
	}
	return min(x, 1)
}
