package atevec

import (
	"testing"

	"soctap/internal/core"
	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/tam"
)

func imageSOC() *soc.SOC {
	mk := func(name string, nChains, chainLen, pat int, density float64, seed int64) *soc.Core {
		chains := make([]int, nChains)
		for i := range chains {
			chains[i] = chainLen
		}
		return &soc.Core{
			Name: name, Inputs: 12, Outputs: 10,
			ScanChains: chains, Patterns: pat,
			CareDensity: density, Clustering: 0.8, Seed: seed,
		}
	}
	return &soc.SOC{Name: "imgsoc", Cores: []*soc.Core{
		mk("x", 20, 25, 25, 0.03, 51),
		mk("y", 16, 20, 20, 0.05, 52),
		{Name: "z", Inputs: 20, Outputs: 10, ScanChains: []int{30, 30},
			Patterns: 15, CareDensity: 0.5, Clustering: 0.3, Seed: 53},
	}}
}

func optimized(t *testing.T, opts core.Options) *core.Result {
	t.Helper()
	if opts.Tables.MaxWidth == 0 {
		opts.Tables = core.TableOptions{MaxWidth: 14}
	}
	res, err := core.Optimize(imageSOC(), 14, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildAndValidate(t *testing.T) {
	res := optimized(t, core.Options{Style: core.StyleTDCPerCore})
	im, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	if im.Depth != res.TestTime {
		t.Errorf("depth %d != makespan %d", im.Depth, res.TestTime)
	}
	st := im.ComputeStats()
	if st.Segments != len(res.SOC.Cores) {
		t.Errorf("%d segments", st.Segments)
	}
	if st.Utilization <= 0 || st.Utilization > 1 {
		t.Errorf("utilization %f out of range", st.Utilization)
	}
	if st.StoredBits <= 0 || st.ChannelBits < st.StoredBits {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

func TestStreamsMatchPlanVolumes(t *testing.T) {
	// For compressed cores the stream length must equal the analytic
	// volume; the direct cores store si×m bits per pattern.
	res := optimized(t, core.Options{Style: core.StyleTDCPerCore})
	im, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]int64{}
	for _, b := range im.Buses {
		for _, s := range b.Segments {
			streams[s.Core] = int64(s.Stream.Len())
		}
	}
	for _, ch := range res.Choices {
		got := streams[ch.Core]
		if ch.Config.UseTDC {
			if got != ch.Config.Volume {
				t.Errorf("%s: stream %d != analytic volume %d", ch.Core, got, ch.Config.Volume)
			}
		} else if got != ch.Config.Volume {
			t.Errorf("%s: direct stream %d != stimulus volume %d", ch.Core, got, ch.Config.Volume)
		}
	}
}

func TestCompressedStreamsDecode(t *testing.T) {
	// Every selective-encoding segment must unpack and decode cleanly
	// into the right number of slices.
	res := optimized(t, core.Options{Style: core.StyleTDCPerCore})
	im, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	cfgByCore := map[string]core.Config{}
	for _, ch := range res.Choices {
		cfgByCore[ch.Core] = ch.Config
	}
	for _, b := range im.Buses {
		for _, s := range b.Segments {
			cfg := cfgByCore[s.Core]
			if cfg.Codec != core.CodecSelEnc {
				continue
			}
			cws, err := selenc.UnpackStream(cfg.M, s.Stream)
			if err != nil {
				t.Fatalf("%s: unpack: %v", s.Core, err)
			}
			slices, err := selenc.DecodeStream(cfg.M, cws)
			if err != nil {
				t.Fatalf("%s: decode: %v", s.Core, err)
			}
			c := res.SOC.CoreByName(s.Core)
			ts, _ := c.TestSet()
			if len(slices)%ts.Len() != 0 {
				t.Errorf("%s: %d slices not a multiple of %d patterns", s.Core, len(slices), ts.Len())
			}
		}
	}
}

func TestDictImage(t *testing.T) {
	res := optimized(t, core.Options{Style: core.StyleTDCPerCore, EnableDict: true, DictSizes: []int{16}})
	im, err := Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNoTDCImageUtilization(t *testing.T) {
	// Direct-access images are dense: utilization well above the
	// compressed plan's.
	direct := optimized(t, core.Options{Style: core.StyleNoTDC})
	perCore := optimized(t, core.Options{Style: core.StyleTDCPerCore})
	di, err := Build(direct)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := Build(perCore)
	if err != nil {
		t.Fatal(err)
	}
	dStats, cStats := di.ComputeStats(), ci.ComputeStats()
	if cStats.StoredBits >= dStats.StoredBits {
		t.Errorf("compression did not shrink stored bits: %d vs %d",
			cStats.StoredBits, dStats.StoredBits)
	}
}

func TestBuildUnknownCore(t *testing.T) {
	res := optimized(t, core.Options{Style: core.StyleTDCPerCore})
	res.Choices[0].Core = "ghost"
	if _, err := Build(res); err == nil {
		t.Error("unknown core accepted")
	}
}

// TestBuildRejectsMalformedPlans: a nil plan or SOC, or a choice on a
// bus the partition does not have, is an error rather than a panic.
func TestBuildRejectsMalformedPlans(t *testing.T) {
	res := optimized(t, core.Options{Style: core.StyleTDCPerCore})
	res.Partition = tam.Partition{7, 7}
	for _, bus := range []int{5, -1} {
		res.Choices[0].Bus = bus
		if _, err := Build(res); err == nil {
			t.Errorf("choice on bus %d of partition %v accepted", bus, res.Partition)
		}
	}
	if _, err := Build(nil); err == nil {
		t.Error("nil plan accepted")
	}
	res.SOC = nil
	if _, err := Build(res); err == nil {
		t.Error("plan without a SOC accepted")
	}
}
