package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"soctap/internal/atevec"
	"soctap/internal/bitvec"
	"soctap/internal/core"
	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files in testdata")

// goldenDictPath is the checked-in rendering of every pinned dictionary
// configuration, stream and plan.
var goldenDictPath = filepath.Join("testdata", "golden_dict.txt")

// goldenDictSizes are the dictionary capacities each (core, m) row is
// pinned at.
var goldenDictSizes = []int{4, 8, 16, 64, 256}

// dictWidths are the wrapper-chain counts technique selection prices
// for a core: 16, 64, 256, … below the core's maximum, then the maximum.
func dictWidths(c *soc.Core) []int {
	maxM := c.MaxWrapperChains()
	var ms []int
	for m := 16; m < maxM; m *= 4 {
		ms = append(ms, m)
	}
	return append(ms, maxM)
}

// packedBytes returns a vector's bits packed LSB first, ⌈n/8⌉ bytes.
func packedBytes(v *bitvec.Vector) []byte {
	var buf []byte
	for _, w := range v.Words() {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf[:(v.Len()+7)/8]
}

// streamBits packs a dictionary stream's bits LSB first and returns them
// with the bit count. A stream of one bool per bit and a packed vector
// of the same bits give the same bytes.
func streamBits[S []bool | *bitvec.Vector](s S) ([]byte, int) {
	switch s := any(s).(type) {
	case []bool:
		buf := make([]byte, (len(s)+7)/8)
		for i, b := range s {
			if b {
				buf[i/8] |= 1 << (i % 8)
			}
		}
		return buf, len(s)
	case *bitvec.Vector:
		return packedBytes(s), s.Len()
	}
	panic("unreachable")
}

// sha returns the hex sha256 of b.
func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// renderGoldenDict renders, for every core of d695 and System1, every
// m that technique selection prices and every capacity of
// goldenDictSizes, EvalDict's Config, a sha256 of atevec.DictStream's
// dictionary words (each packed LSB first) and one of its stream bits
// with their count. Then it optimizes d695 and System1 with dictionary
// coding at W_TAM 8, 16 and 32 under four DictSizes, checks each plan
// with VerifyPlan, and renders it as TestGoldenPlans does, with the
// digest of every dictionary core's stream in the ATE image.
func renderGoldenDict(t *testing.T) []byte {
	t.Helper()
	designs := []*soc.SOC{soc.D695(), soc.MustSystem("System1")}
	var buf bytes.Buffer
	for _, s := range designs {
		for _, c := range s.Cores {
			for _, m := range dictWidths(c) {
				d, err := wrapper.New(c, m)
				if err != nil {
					t.Fatal(err)
				}
				for _, words := range goldenDictSizes {
					cfg, err := core.EvalDict(c, m, words)
					if err != nil {
						t.Fatalf("%s %s m=%d D=%d: %v", s.Name, c.Name, m, words, err)
					}
					src, err := c.Cubes()
					if err != nil {
						t.Fatal(err)
					}
					dict, stream, err := atevec.DictStream(d, src, words)
					if err != nil {
						t.Fatalf("%s %s m=%d D=%d: %v", s.Name, c.Name, m, words, err)
					}
					var wb []byte
					for _, w := range dict.Words {
						wb = append(wb, packedBytes(w)...)
					}
					sb, n := streamBits(stream)
					fmt.Fprintf(&buf, "%s %s m=%d D=%d: %v words %s stream %s bits %d\n",
						s.Name, c.Name, m, words, cfg, sha(wb), sha(sb), n)
				}
			}
		}
	}
	var cache core.Cache
	for _, s := range designs {
		for _, wtam := range []int{8, 16, 32} {
			for _, sizes := range [][]int{{8}, {4, 8}, nil, {16, 64}} {
				res, err := core.Optimize(s, wtam, core.Options{
					Style: core.StyleTDCPerCore, Cache: &cache,
					EnableDict: true, DictSizes: sizes,
				})
				if err != nil {
					t.Fatalf("%s W_TAM=%d sizes %v: %v", s.Name, wtam, sizes, err)
				}
				if err := VerifyPlan(res); err != nil {
					t.Errorf("%s W_TAM=%d sizes %v: %v", s.Name, wtam, sizes, err)
				}
				im, err := atevec.Build(res)
				if err != nil {
					t.Fatal(err)
				}
				streams := map[string]*bitvec.Vector{}
				for _, b := range im.Buses {
					for _, seg := range b.Segments {
						streams[seg.Core] = seg.Stream
					}
				}
				fmt.Fprintf(&buf, "%s W=%d sizes=%v: buses %v makespan %d volume %d wires %d decomp %d ffs %d gates %d\n",
					s.Name, wtam, sizes, res.Partition, res.TestTime, res.Volume,
					res.InternalWires, res.Decompressors, res.DecompFFs, res.DecompGates)
				for i, it := range res.Schedule.Items {
					ch := res.Choices[i]
					fmt.Fprintf(&buf, "  %s bus %d start %d dur %d %v", ch.Core, it.Bus, it.Start, it.Duration, ch.Config)
					if ch.Config.Codec == core.CodecDict {
						sb, n := streamBits(streams[ch.Core])
						fmt.Fprintf(&buf, " stream %s bits %d", sha(sb), n)
					}
					buf.WriteByte('\n')
				}
			}
		}
	}
	return buf.Bytes()
}

// TestGoldenDict is the oracle of the dictionary codec: every pinned
// configuration, dictionary, stream and dictionary plan of d695 and
// System1 must be byte-identical to testdata/golden_dict.txt. Regenerate
// the file with -update only when a change is meant to alter them.
func TestGoldenDict(t *testing.T) {
	checkGolden(t, goldenDictPath, renderGoldenDict(t))
}

// checkGolden compares got with the golden file at path, which -update
// rewrites first, and reports the first line that differs.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(g) && i < len(w); i++ {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(g), len(w))
	}
}
