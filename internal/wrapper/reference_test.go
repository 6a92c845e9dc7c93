package wrapper

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"soctap/internal/soc"
)

// referenceNew is the straightforward form of New, kept as its oracle:
// best-fit-decreasing over a typed heap of (chain, load) pairs that
// appends to each wrapper chain's own slice, then two water-fills that
// each sort their own heights.
func referenceNew(core *soc.Core, m int) *Design {
	d := &Design{Core: core, M: m, Chains: make([]Chain, m)}
	type sc struct{ idx, len int }
	scs := make([]sc, len(core.ScanChains))
	for i, l := range core.ScanChains {
		scs[i] = sc{i, l}
	}
	slices.SortFunc(scs, func(a, b sc) int {
		if a.len != b.len {
			return b.len - a.len
		}
		return a.idx - b.idx
	})
	h := make(refLoadHeap, m)
	for i := range h {
		h[i].chain = i
	}
	for _, s := range scs {
		cl := h[0]
		d.Chains[cl.chain].ScanChains = append(d.Chains[cl.chain].ScanChains, s.idx)
		d.Chains[cl.chain].ScanLen += s.len
		h[0].load += s.len
		h.siftDown(0)
	}
	inHeights := make([]int, m)
	outHeights := make([]int, m)
	for i := range d.Chains {
		inHeights[i] = d.Chains[i].ScanLen
		outHeights[i] = d.Chains[i].ScanLen
	}
	for i, add := range refWaterFill(inHeights, core.InCells()) {
		d.Chains[i].InCells = add
	}
	for i, add := range refWaterFill(outHeights, core.OutCells()) {
		d.Chains[i].OutCells = add
	}
	for i := range d.Chains {
		d.ScanIn = max(d.ScanIn, d.Chains[i].StimulusLen())
		d.ScanOut = max(d.ScanOut, d.Chains[i].ResponseLen())
	}
	return d
}

type chainLoad struct{ chain, load int }

type refLoadHeap []chainLoad

func (h refLoadHeap) less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].chain < h[j].chain
}

func (h refLoadHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		min := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			min = r
		}
		if !h.less(min, i) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// refWaterFill distributes n unit cells over bins with the given initial
// heights so that the maximum height is minimized, returning the
// per-bin additions.
func refWaterFill(heights []int, n int) []int {
	add := make([]int, len(heights))
	if n <= 0 || len(heights) == 0 {
		return add
	}
	idx := make([]int, len(heights))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if heights[a] != heights[b] {
			return heights[a] - heights[b]
		}
		return a - b
	})
	level := heights[idx[0]]
	filled, count := 0, 1
	for count < len(idx) {
		next := heights[idx[count]]
		cost := (next - level) * count
		if filled+cost >= n {
			break
		}
		filled += cost
		level = next
		count++
	}
	remaining := n - filled
	per, extra := remaining/count, remaining%count
	for i := 0; i < count; i++ {
		target := level + per
		if i < extra {
			target++
		}
		add[idx[i]] = target - heights[idx[i]]
	}
	return add
}

// sameDesign reports the first field in which got differs from want:
// each chain's scan chains (in order), input cells, output cells and
// scan length, and the design's scan-in and scan-out depths.
func sameDesign(got, want *Design) error {
	if got.M != want.M || len(got.Chains) != len(want.Chains) {
		return fmt.Errorf("m = %d with %d chains, want %d with %d", got.M, len(got.Chains), want.M, len(want.Chains))
	}
	for i := range want.Chains {
		g, w := &got.Chains[i], &want.Chains[i]
		switch {
		case !slices.Equal(g.ScanChains, w.ScanChains):
			return fmt.Errorf("chain %d: scan chains %v, want %v", i, g.ScanChains, w.ScanChains)
		case g.InCells != w.InCells:
			return fmt.Errorf("chain %d: %d input cells, want %d", i, g.InCells, w.InCells)
		case g.OutCells != w.OutCells:
			return fmt.Errorf("chain %d: %d output cells, want %d", i, g.OutCells, w.OutCells)
		case g.ScanLen != w.ScanLen:
			return fmt.Errorf("chain %d: scan length %d, want %d", i, g.ScanLen, w.ScanLen)
		}
	}
	if got.ScanIn != want.ScanIn || got.ScanOut != want.ScanOut {
		return fmt.Errorf("si/so = %d/%d, want %d/%d", got.ScanIn, got.ScanOut, want.ScanIn, want.ScanOut)
	}
	return nil
}

func checkAgainstReference(t *testing.T, c *soc.Core, m int) {
	t.Helper()
	got, err := New(c, m)
	if err != nil {
		t.Fatalf("%s m=%d: %v", c.Name, m, err)
	}
	if err := sameDesign(got, referenceNew(c, m)); err != nil {
		t.Fatalf("%s m=%d: %v", c.Name, m, err)
	}
}

// TestNewMatchesReference holds New to referenceNew field for field on
// every paper core (the ten d695 cores and the twelve industrial cores)
// at every m, and on random cores: equal-length chains, where every
// placement ties on load; m at or above the scan chain count; m at
// MaxWrapperChains; and no input or no output cells.
func TestNewMatchesReference(t *testing.T) {
	cores := append([]*soc.Core(nil), soc.D695().Cores...)
	for _, name := range soc.IndustrialCoreNames() {
		cores = append(cores, soc.MustIndustrialCore(name))
	}
	for _, c := range cores {
		for m := 1; m <= c.MaxWrapperChains(); m++ {
			checkAgainstReference(t, c, m)
		}
	}

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		chains := make([]int, rng.Intn(40))
		equal := 1 + rng.Intn(60)
		for j := range chains {
			chains[j] = 1 + rng.Intn(60)
			if i%2 == 0 {
				chains[j] = equal
			}
		}
		c := &soc.Core{Name: fmt.Sprintf("rand-%d", i), Inputs: rng.Intn(50), Outputs: rng.Intn(50),
			Bidirs: rng.Intn(3), ScanChains: chains}
		switch i % 3 {
		case 1:
			c.Inputs, c.Bidirs = 0, 0
		case 2:
			c.Outputs, c.Bidirs = 0, 0
		}
		if c.MaxWrapperChains() == 0 {
			continue
		}
		maxM := c.MaxWrapperChains()
		ms := []int{1, maxM, max(1, min(maxM, len(chains))), 1 + rng.Intn(maxM)}
		if len(chains) < maxM {
			ms = append(ms, len(chains)+1+rng.Intn(maxM-len(chains)))
		}
		for _, m := range ms {
			checkAgainstReference(t, c, m)
		}
	}
}
