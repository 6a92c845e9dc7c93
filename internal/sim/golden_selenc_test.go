package sim

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"soctap/internal/atevec"
	"soctap/internal/core"
	"soctap/internal/selenc"
	"soctap/internal/soc"
)

// goldenSelEncPath is the checked-in rendering of every pinned
// selective-encoding stream.
var goldenSelEncPath = filepath.Join("testdata", "golden_selenc.txt")

// renderGoldenSelEnc optimizes d695 and d2758 at W_TAM 8..64 (step 8)
// under tdc-per-core, and System1 at W_TAM 16 and 32 under tdc-per-core
// and tdc-per-TAM, checks each plan with VerifyPlan, and renders one
// line per compressed core: its name, m, codeword width w, codeword
// and bit counts, and the sha256 of the stream atevec.Build ships.
func renderGoldenSelEnc(t *testing.T) []byte {
	t.Helper()
	type run struct {
		s      *soc.SOC
		widths []int
		styles []core.Style
	}
	runs := []run{
		{soc.D695(), []int{8, 16, 24, 32, 40, 48, 56, 64}, []core.Style{core.StyleTDCPerCore}},
		{soc.D2758(), []int{8, 16, 24, 32, 40, 48, 56, 64}, []core.Style{core.StyleTDCPerCore}},
		{soc.MustSystem("System1"), []int{16, 32}, []core.Style{core.StyleTDCPerCore, core.StyleTDCPerTAM}},
	}
	var buf bytes.Buffer
	var cache core.Cache
	for _, r := range runs {
		for _, wtam := range r.widths {
			for _, style := range r.styles {
				res, err := core.Optimize(r.s, wtam, core.Options{Style: style, Cache: &cache})
				if err != nil {
					t.Fatalf("%s W_TAM=%d %v: %v", r.s.Name, wtam, style, err)
				}
				if err := VerifyPlan(res); err != nil {
					t.Errorf("%s W_TAM=%d %v: %v", r.s.Name, wtam, style, err)
				}
				im, err := atevec.Build(res)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "%s W=%d %v:\n", r.s.Name, wtam, style)
				for _, b := range im.Buses {
					for _, seg := range b.Segments {
						ch := res.Choices[choiceIndex(t, res, seg.Core)]
						if !ch.Config.UseTDC {
							continue
						}
						w := selenc.CodewordWidth(ch.Config.M)
						sb, n := streamBits(seg.Stream)
						fmt.Fprintf(&buf, "  %s m=%d w=%d codewords %d bits %d stream %s\n",
							seg.Core, ch.Config.M, w, n/w, n, sha(sb))
					}
				}
			}
		}
	}
	return buf.Bytes()
}

// choiceIndex returns the index of core name's choice in res.
func choiceIndex(t *testing.T, res *core.Result, name string) int {
	t.Helper()
	for i, ch := range res.Choices {
		if ch.Core == name {
			return i
		}
	}
	t.Fatalf("%s: no choice for core %s", res.SOC.Name, name)
	return -1
}

// TestGoldenSelEnc is the oracle of the selective-encoding stream the
// ATE image ships: every compressed core of the pinned plans must encode
// to the stream testdata/golden_selenc.txt records. Regenerate the file
// with -update only when a change is meant to alter the streams.
func TestGoldenSelEnc(t *testing.T) {
	checkGolden(t, goldenSelEncPath, renderGoldenSelEnc(t))
}
