package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"soctap/internal/core"
	"soctap/internal/soc"
)

// Every design reaches the program as .soc text and is parsed, as a
// design file would be. Seeds pick the cube contents of synthetic
// designs, op orders, request mixes and arrival times; design structure
// (cores, scan cells, patterns) and TAM widths are fixed per workload,
// so every seed asks for the same amount of work and the spread between
// seeds measures the program, not the draw.

// socText renders s in the .soc format.
func socText(s *soc.SOC) []byte {
	var b bytes.Buffer
	soc.Write(&b, s) // writes to a bytes.Buffer cannot fail
	return b.Bytes()
}

// parse reads a design with soc.Parse.
func (r *runner) parse(parent int, text []byte) (*soc.SOC, error) {
	sp := r.tr.begin("parse", parent, 0)
	t0 := time.Now()
	s, err := soc.Parse(bytes.NewReader(text))
	r.tr.sample("soc.parse_us", float64(time.Since(t0))/1e3)
	r.tr.end(sp)
	return s, err
}

// synthStructure is a fixed industrial-profile structure: cores drawn
// by soc.Synthesize from a constant seed, scaled down so a table set
// builds in a fraction of a second.
type synthStructure struct {
	cores    int
	seed     int64 // structure seed, constant per workload
	patterns int
	scale    float64
}

// text synthesizes the structure and draws every core's cube-generator
// seed from seed: the structure stays, the test cubes change.
func (st synthStructure) text(name string, seed int64) ([]byte, error) {
	s, err := soc.Synthesize(context.Background(), soc.SynthSpec{
		Name: name, Profile: "industrial", Cores: st.cores, Seed: st.seed,
		Patterns: st.patterns, Scale: st.scale,
	})
	if err != nil {
		return nil, err
	}
	for i, c := range s.Cores {
		c.Seed = seed*1000 + int64(i) + 1
	}
	return socText(s), nil
}

// texts renders built-in designs by name, plus extra ones.
func texts(names []string, extra ...[]byte) ([][]byte, error) {
	var out [][]byte
	for _, n := range names {
		s, ok := soc.AllBenchmarks()[n]
		if !ok {
			return nil, fmt.Errorf("no built-in design %q", n)
		}
		out = append(out, socText(s))
	}
	return append(out, extra...), nil
}

// widths are the TAM budgets every op list covers. They are fixed
// rather than drawn: the cost of one plan (and of verifying it) jumps
// with the width, so drawn widths made the medians depend on the seed.
var widths = []int{8, 16, 24, 32, 40, 48, 56, 64}

// planOp is one optimize request: a design (by index), a TAM width and
// a style.
type planOp struct {
	design int
	width  int
	style  core.Style
}

func (o planOp) key() planKey { return planKey{o.design, o.width, o.style} }

type planKey struct {
	design int
	width  int
	style  core.Style
}

// planOps returns one op per (design, width, style) in rng-shuffled
// order.
func planOps(rng *rand.Rand, designs int, styles []core.Style) []planOp {
	var ops []planOp
	for d := 0; d < designs; d++ {
		for _, w := range widths {
			for _, st := range styles {
				ops = append(ops, planOp{design: d, width: w, style: st})
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// golden is the answer an op must reproduce.
type golden struct {
	testTime int64
	volume   int64
}

func goldenOf(res *core.Result) golden { return golden{res.TestTime, res.Volume} }

// matches checks an answer against its golden.
func (g golden) matches(testTime, volume int64) error {
	if testTime != g.testTime || volume != g.volume {
		return fmt.Errorf("plan (%d cycles, %d bits) differs from golden (%d cycles, %d bits)",
			testTime, volume, g.testTime, g.volume)
	}
	return nil
}
