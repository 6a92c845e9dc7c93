package cube_test

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"soctap/internal/cube"
	"soctap/internal/soc"
)

// refGenerate is the generator in its straightforward form, kept as
// its oracle: a map of seen positions per cube and a sort of the
// CareBit values by position, from the same random draws in the same
// order.
func refGenerate(g cube.GenSpec) []*cube.Cube {
	oneBias := g.OneBias
	if oneBias <= 0 || oneBias >= 1 {
		oneBias = 0.4
	}
	clamp := func(x float64) float64 {
		if !(x >= 0) {
			return 0
		}
		return min(x, 1)
	}
	decay, clustering := clamp(g.DensityDecay), clamp(g.Clustering)
	var chainStart []int
	off := g.IOCells
	for _, l := range g.Geometry {
		chainStart = append(chainStart, off)
		off += l
	}
	rng := rand.New(rand.NewSource(g.Seed))
	out := make([]*cube.Cube, 0, g.Patterns)
	for i := 0; i < g.Patterns; i++ {
		frac := 0.0
		if g.Patterns > 1 {
			frac = float64(i) / float64(g.Patterns-1)
		}
		d := g.Density * (1 + decay*(1-2*frac))
		if d <= 0 {
			d = g.Density * 0.05
		}
		d = min(d, 1)
		nCare := min(max(int(math.Round(d*float64(g.NumBits))), 1), g.NumBits)
		if chainStart != nil {
			out = append(out, refScanCube(rng, g, chainStart, nCare, clustering, oneBias))
		} else {
			out = append(out, refFlatCube(rng, g.NumBits, nCare, clustering, oneBias))
		}
	}
	return out
}

func refScanCube(rng *rand.Rand, g cube.GenSpec, chainStart []int, nCare int, clustering, oneBias float64) *cube.Cube {
	c := cube.NewCube(g.NumBits)
	c.Care = make([]cube.CareBit, 0, nCare)
	seen := make(map[int]bool, nCare)
	nChains := len(g.Geometry)
	ioCare := 0
	if g.IOCells > 0 {
		ioCare = nCare * g.IOCells / g.NumBits
	}
	placed := 0
	for tries := 0; placed < ioCare && tries < ioCare*40; tries++ {
		pos := rng.Intn(g.IOCells)
		if seen[pos] {
			continue
		}
		seen[pos] = true
		c.Care = append(c.Care, cube.CareBit{Pos: pos, Value: rng.Float64() < oneBias})
		placed++
	}
	meanSpan := 2 + clustering*14
	for attempts := 0; placed < nCare && attempts < nCare*40; attempts++ {
		span := min(1+rng.Intn(int(meanSpan)), nChains)
		c0 := rng.Intn(nChains - span + 1)
		depthSpan := 1 + rng.Intn(2)
		minLen := slices.Min(g.Geometry[c0 : c0+span])
		if minLen <= depthSpan {
			depthSpan = 1
		}
		d0 := rng.Intn(max(1, minLen-depthSpan+1))
		domVal := rng.Float64() < oneBias
		for ch := c0; ch < c0+span && placed < nCare; ch++ {
			for dd := 0; dd < depthSpan && placed < nCare; dd++ {
				d := d0 + dd
				if d >= g.Geometry[ch] || rng.Float64() > 0.8 {
					continue
				}
				pos := chainStart[ch] + d
				if seen[pos] {
					continue
				}
				seen[pos] = true
				v := domVal
				if rng.Float64() > 0.85 {
					v = !v
				}
				c.Care = append(c.Care, cube.CareBit{Pos: pos, Value: v})
				placed++
			}
		}
	}
	refFill(rng, c, seen, g.NumBits, nCare, placed, oneBias)
	return c
}

func refFlatCube(rng *rand.Rand, numBits, nCare int, clustering, oneBias float64) *cube.Cube {
	c := cube.NewCube(numBits)
	c.Care = make([]cube.CareBit, 0, nCare)
	seen := make(map[int]bool, nCare)
	nCones := min(1+int(float64(nCare)*math.Pow(1-clustering, 2)), nCare)
	type cone struct {
		center int
		spread float64
		domVal bool
	}
	cones := make([]cone, nCones)
	for i := range cones {
		cones[i] = cone{
			center: rng.Intn(numBits),
			spread: float64(numBits) * (0.002 + 0.2*(1-clustering)),
			domVal: rng.Float64() < oneBias,
		}
	}
	placed := 0
	for attempts := 0; placed < nCare && attempts < nCare*50; attempts++ {
		co := cones[rng.Intn(nCones)]
		pos := co.center + int(rng.NormFloat64()*co.spread)
		if pos < 0 || pos >= numBits || seen[pos] {
			continue
		}
		seen[pos] = true
		v := co.domVal
		if rng.Float64() > 0.85 {
			v = !v
		}
		c.Care = append(c.Care, cube.CareBit{Pos: pos, Value: v})
		placed++
	}
	refFill(rng, c, seen, numBits, nCare, placed, oneBias)
	return c
}

// refFill places the remaining care bits on the free cells in order,
// then sorts the cube's care bits by position.
func refFill(rng *rand.Rand, c *cube.Cube, seen map[int]bool, numBits, nCare, placed int, oneBias float64) {
	for pos := 0; placed < nCare && pos < numBits; pos++ {
		if seen[pos] {
			continue
		}
		seen[pos] = true
		c.Care = append(c.Care, cube.CareBit{Pos: pos, Value: rng.Float64() < oneBias})
		placed++
	}
	slices.SortFunc(c.Care, func(a, b cube.CareBit) int { return cmp.Compare(a.Pos, b.Pos) })
}

// genSpec is the generator spec of a core's test set, as soc.Core
// derives it.
func genSpec(c *soc.Core) cube.GenSpec {
	return cube.GenSpec{
		NumBits: c.StimulusBits(), Patterns: c.Patterns, Density: c.CareDensity,
		DensityDecay: c.DensityDecay, Clustering: c.Clustering, Seed: c.Seed,
		Geometry: c.ScanChains, IOCells: c.InCells(),
	}
}

// TestGeneratorMatchesReference holds the generator, with its reused
// seen bitset and packed-key sort, to refGenerate cube for cube: on the
// paper cores (d695 and the industrial cores), on small synthesized
// industrial, iscas and giant cores, on flat specs (no geometry) and on
// saturated specs (density 1, where fillRemaining places the bits
// random placement could not).
func TestGeneratorMatchesReference(t *testing.T) {
	var specs []cube.GenSpec
	cores := append([]*soc.Core(nil), soc.D695().Cores...)
	for _, name := range soc.IndustrialCoreNames() {
		cores = append(cores, soc.MustIndustrialCore(name))
	}
	for _, profile := range []string{"industrial", "iscas", "giant"} {
		s, err := soc.Synthesize(context.Background(), soc.SynthSpec{Name: profile, Profile: profile, Cores: 3, Seed: 11, Patterns: 24, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		cores = append(cores, s.Cores...)
	}
	for _, c := range cores {
		specs = append(specs, genSpec(c))
	}
	for i, clustering := range []float64{0, 0.5, 1} {
		specs = append(specs, cube.GenSpec{NumBits: 3000, Patterns: 20, Density: 0.04, DensityDecay: 0.6, Clustering: clustering, Seed: int64(i)})
	}
	specs = append(specs,
		cube.GenSpec{NumBits: 200, Patterns: 4, Density: 1, Clustering: 0.9, Seed: 3},
		cube.GenSpec{NumBits: 260, Patterns: 4, Density: 1, Clustering: 0.9, Seed: 4,
			Geometry: []int{100, 70, 30, 50}, IOCells: 10},
		cube.GenSpec{NumBits: 90, Patterns: 6, Density: 0.9, DensityDecay: 1, Clustering: 0.2, Seed: 5,
			Geometry: []int{40, 40}, IOCells: 10})
	for si, spec := range specs {
		gen, err := cube.NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range refGenerate(spec) {
			got, ok := gen.Next()
			if !ok {
				t.Fatalf("spec %d: stream ended at cube %d", si, i)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spec %d (%d bits): cube %d differs from the reference", si, spec.NumBits, i)
			}
		}
	}
}
