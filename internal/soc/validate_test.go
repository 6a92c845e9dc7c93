package soc

// Malformed-design regression tests: design files are untrusted input,
// and Validate is the gate that keeps them out of the panicking
// cube/bitvec kernels. Each case here is a file that once reached (or
// would reach) a kernel panic — integer overflow of the stimulus total,
// NaN generator parameters that pass naive range checks because every
// NaN comparison is false — and must instead fail with a descriptive
// error.

import (
	"math"
	"strings"
	"testing"

	"soctap/internal/cube"
)

// parseDesign builds a one-core design file around the given core body
// and parses it.
func parseDesign(t *testing.T, coreBody string) (*SOC, error) {
	t.Helper()
	text := "SocName bad\nCore c1\n" + coreBody + "\nEndCore\n"
	return Parse(strings.NewReader(text))
}

func TestParseRejectsMalformedDesigns(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // substring of the expected error
	}{
		{
			// Inputs near MaxInt: StimulusBits would overflow int and go
			// negative, and a negative width panics the cube constructor.
			name: "overflow-inputs",
			body: "Inputs 9223372036854775807\nOutputs 1\nPatterns 1",
			want: "terminal count",
		},
		{
			// Two large-but-individually-legal terminal counts whose sum
			// is absurd must also be rejected (the bound is on the total).
			name: "huge-stimulus-total",
			body: "Inputs 16000000\nOutputs 1\nBidirs 16000000\n" +
				"ScanChains 20 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000 40000000\n" +
				"Patterns 1",
			want: "stimulus cells exceeds",
		},
		{
			name: "nan-care-density",
			body: "Inputs 8\nOutputs 8\nPatterns 4\nCareDensity NaN",
			want: "care density",
		},
		{
			name: "nan-clustering",
			body: "Inputs 8\nOutputs 8\nPatterns 4\nCareDensity 0.5\nClustering NaN",
			want: "not finite",
		},
		{
			name: "inf-density-decay",
			body: "Inputs 8\nOutputs 8\nPatterns 4\nCareDensity 0.5\nDensityDecay +Inf",
			want: "not finite",
		},
		{
			name: "huge-patterns",
			body: "Inputs 8\nOutputs 8\nPatterns 9223372036854775807",
			want: "patterns",
		},
		{
			name: "huge-chain-length",
			body: "Inputs 8\nOutputs 8\nScanChains 1 9223372036854775807\nPatterns 4",
			want: "length",
		},
		{
			name: "too-many-chains",
			body: "Inputs 8\nOutputs 8\nScanChains 9223372036854775807\nPatterns 4",
			want: "", // parser or validator may word this differently
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("malformed design panicked the parser: %v", r)
				}
			}()
			s, err := parseDesign(t, tc.body)
			if err == nil {
				// Parsing may legitimately succeed for borderline text;
				// the design must then still fail validation and, above
				// all, never panic downstream.
				if err = s.Validate(); err == nil {
					t.Fatal("malformed design accepted")
				}
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateStructuralBounds exercises the bounds directly on Core
// values (bypassing the parser), including the overflow-safe stimulus
// accumulation.
func TestValidateStructuralBounds(t *testing.T) {
	base := func() *Core {
		return &Core{Name: "c", Inputs: 8, Outputs: 8, Patterns: 4,
			CareDensity: 0.5, Clustering: 0.5, DensityDecay: 0.5}
	}
	cases := []struct {
		name   string
		mutate func(*Core)
	}{
		{"terminals-over-max", func(c *Core) { c.Inputs = MaxTerminals + 1 }},
		{"stimulus-overflow", func(c *Core) {
			// Each addend fits in int; the exact-int64 total must trip the
			// MaxStimulusBits bound instead of wrapping negative.
			c.Inputs = MaxTerminals
			c.Bidirs = MaxTerminals
			c.ScanChains = []int{MaxScanChainLen, MaxScanChainLen, MaxScanChainLen, MaxScanChainLen, MaxScanChainLen}
		}},
		{"chain-count-over-max", func(c *Core) {
			c.ScanChains = make([]int, MaxScanChains+1)
			for i := range c.ScanChains {
				c.ScanChains[i] = 1
			}
		}},
		{"patterns-over-max", func(c *Core) { c.Patterns = MaxPatterns + 1 }},
		{"nan-care-density", func(c *Core) { c.CareDensity = math.NaN() }},
		{"nan-clustering", func(c *Core) { c.Clustering = math.NaN() }},
		{"inf-density-decay", func(c *Core) { c.DensityDecay = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base()
			tc.mutate(c)
			if err := c.Validate(); err == nil {
				t.Fatal("out-of-bounds core validated")
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("baseline core must validate: %v", err)
	}
}

// TestValidateRejectsMalformedExplicitCubes: an attached test set is
// priced by kernels that trust its cubes' form, so Validate must refuse
// any cube off the set's width or with care positions out of range,
// repeated or unsorted — naming the core, the cube and the position.
func TestValidateRejectsMalformedExplicitCubes(t *testing.T) {
	const bits = 100
	core := func(mutate func(cubes []*cube.Cube)) *Core {
		set := cube.NewSet(bits)
		for j := 0; j < 3; j++ {
			cb := cube.NewCube(bits)
			cb.Set(j, true)
			cb.Set(50+j, false)
			if err := set.Add(cb); err != nil {
				t.Fatal(err)
			}
		}
		mutate(set.Cubes)
		return &Core{Name: "explicit", Inputs: bits, Outputs: 4, Patterns: 3, ExplicitCubes: set}
	}
	appendBit := func(cb *cube.Cube, pos int) {
		cb.Care = append(cb.Care, cube.CareBit{Pos: pos, Value: true})
	}
	cases := []struct {
		name   string
		mutate func(cubes []*cube.Cube)
		want   []string // substrings of the expected error
	}{
		{"out-of-range", func(cs []*cube.Cube) { appendBit(cs[0], 128) },
			[]string{"core explicit", "cube 0", "position 128"}},
		{"negative", func(cs []*cube.Cube) { cs[1].Care[0].Pos = -1 },
			[]string{"core explicit", "cube 1", "position -1"}},
		{"duplicate", func(cs []*cube.Cube) { appendBit(cs[2], 52) },
			[]string{"core explicit", "cube 2", "position 52"}},
		{"unsorted", func(cs []*cube.Cube) { appendBit(cs[1], 7) },
			[]string{"core explicit", "cube 1", "position 7"}},
		{"wrong-width", func(cs []*cube.Cube) { cs[2].NumBits = bits + 28 },
			[]string{"core explicit", "cube 2", "width 128"}},
		{"nil-cube", func(cs []*cube.Cube) { cs[1] = nil },
			[]string{"core explicit", "cube 1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := core(tc.mutate).Validate()
			if err == nil {
				t.Fatal("malformed explicit cube validated")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
	if err := core(func([]*cube.Cube) {}).Validate(); err != nil {
		t.Fatalf("well-formed explicit cubes must validate: %v", err)
	}
}

// TestMalformedDesignNeverReachesKernels: even if a caller skips
// Validate, TestSet on a NaN-parameterized core must return an error,
// not panic (the generator revalidates its spec).
func TestMalformedDesignNeverReachesKernels(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("TestSet panicked on a NaN-parameterized core: %v", r)
		}
	}()
	c := &Core{Name: "c", Inputs: 8, Outputs: 8, Patterns: 4,
		CareDensity: 0.5, Clustering: math.NaN()}
	if _, err := c.TestSet(); err == nil {
		t.Fatal("TestSet accepted a NaN Clustering")
	}
}
