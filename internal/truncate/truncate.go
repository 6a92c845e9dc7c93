// Package truncate implements test-data truncation under an ATE
// memory-depth constraint, after Larsson & Edbom ("Test data truncation
// for test quality maximisation under ATE memory depth constraint", IET
// CDT). When the (compressed) test set still exceeds tester memory, the
// planner drops trailing patterns per core — ATPG orders patterns by
// decreasing incremental fault coverage, so early patterns matter most —
// choosing per-core pattern counts that maximize estimated test quality
// within the memory budget.
//
// Test quality is modeled with the standard saturating coverage curve:
// the i-th kept pattern of a core contributes marginal coverage
// proportional to its care-bit count (a direct consequence of the
// density-decay structure of compacted ATPG sets). The allocator is a
// greedy marginal-utility algorithm, which is optimal here because the
// marginal gains are non-increasing per core.
package truncate

import (
	"container/heap"
	"fmt"

	"soctap/internal/soc"
)

// CoreBudget describes one core's truncation outcome.
type CoreBudget struct {
	Core     string
	Patterns int     // patterns kept
	Total    int     // patterns available
	Bits     int64   // ATE bits consumed by the kept patterns
	Quality  float64 // fraction of the core's total weight retained, in [0,1]
}

// Result is a complete truncation plan.
type Result struct {
	Cores []CoreBudget
	// Bits is the total ATE storage of the kept patterns.
	Bits int64
	// Quality is the average per-core retained quality, the objective
	// of the allocation.
	Quality float64
}

// PatternCost reports the ATE storage (bits) of pattern j of core c
// under the chosen encoding. Implementations typically wrap the
// selective-encoding cost model; the uncompressed cost is
// StimulusBits() per pattern.
type PatternCost func(c *soc.Core, j int) int64

// UncompressedCost is the PatternCost of direct pattern storage.
func UncompressedCost(c *soc.Core, j int) int64 { return int64(c.StimulusBits()) }

// Plan selects per-core pattern counts maximizing summed quality within
// the memory budget (total bits across all cores). Patterns are always
// kept in order: a core keeping k patterns keeps its first k.
func Plan(s *soc.SOC, budgetBits int64, cost PatternCost) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if budgetBits < 0 {
		return nil, fmt.Errorf("truncate: negative budget")
	}
	if cost == nil {
		cost = UncompressedCost
	}

	type coreState struct {
		core    *soc.Core
		weights []float64 // marginal quality of pattern j, non-increasing
		costs   []int64
		total   float64
		kept    int
		bits    int64
		quality float64
	}
	states := make([]*coreState, len(s.Cores))
	for i, c := range s.Cores {
		// One pass of soc.Core.Cubes: a core at or above the residency
		// threshold streams.
		src, err := c.Cubes()
		if err != nil {
			return nil, err
		}
		st := &coreState{core: c}
		for cb, ok := src.Next(); ok; cb, ok = src.Next() {
			w := float64(cb.CareCount())
			if w <= 0 {
				w = 0.5 // every pattern detects something
			}
			st.costs = append(st.costs, cost(c, len(st.weights)))
			st.weights = append(st.weights, w)
			st.total += w
		}
		// Enforce non-increasing marginal gains (the coverage curve is
		// concave even if care counts wiggle): running maximum clamp.
		for j := 1; j < len(st.weights); j++ {
			if st.weights[j] > st.weights[j-1] {
				st.weights[j] = st.weights[j-1]
			}
		}
		states[i] = st
	}

	utility := func(st *coreState, j int) float64 {
		c := st.costs[j]
		if c <= 0 {
			c = 1
		}
		return st.weights[j] / st.total / float64(c)
	}

	// Greedy: repeatedly take the pattern with the best quality-per-bit
	// marginal utility that still fits. With concave per-core curves
	// this is the optimal fractional-knapsack order, and pattern costs
	// are small relative to budgets, so the integral loss is negligible.
	h := &utilHeap{}
	for i, st := range states {
		if len(st.weights) > 0 {
			heap.Push(h, utilItem{core: i, util: utility(st, 0)})
		}
	}
	var used int64
	for h.Len() > 0 {
		it := heap.Pop(h).(utilItem)
		st := states[it.core]
		j := st.kept
		c := st.costs[j]
		if used+c > budgetBits {
			// This core's next pattern does not fit; it will not fit
			// later either (costs are per-pattern), so drop the core
			// from further consideration but try others.
			continue
		}
		used += c
		st.kept++
		st.bits += c
		st.quality += st.weights[j] / st.total
		if st.kept < len(st.weights) {
			heap.Push(h, utilItem{core: it.core, util: utility(st, st.kept)})
		}
	}

	res := &Result{Bits: used}
	var q float64
	for _, st := range states {
		res.Cores = append(res.Cores, CoreBudget{
			Core:     st.core.Name,
			Patterns: st.kept,
			Total:    len(st.weights),
			Bits:     st.bits,
			Quality:  st.quality,
		})
		q += st.quality
	}
	res.Quality = q / float64(len(states))
	return res, nil
}

type utilItem struct {
	core int
	util float64
}

type utilHeap []utilItem

func (h utilHeap) Len() int { return len(h) }
func (h utilHeap) Less(i, j int) bool {
	if h[i].util != h[j].util {
		return h[i].util > h[j].util // max-heap on utility
	}
	return h[i].core < h[j].core
}
func (h utilHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *utilHeap) Push(x interface{}) { *h = append(*h, x.(utilItem)) }
func (h *utilHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
