// Package tam models SOC-level test access mechanisms: the partition of
// the top-level TAM width W_TAM into k fixed-width test buses, and the
// assignment of cores to buses. It provides the partition arithmetic the
// optimizer's architecture search is built on.
package tam

import "fmt"

// Partition is the widths of the k TAM buses, in bus order. All widths
// are positive.
type Partition []int

// TotalWidth returns the summed bus width.
func (p Partition) TotalWidth() int {
	w := 0
	for _, x := range p {
		w += x
	}
	return w
}

// Validate checks that every bus has positive width and, if maxTotal > 0,
// that the partition fits the budget.
func (p Partition) Validate(maxTotal int) error {
	if len(p) == 0 {
		return fmt.Errorf("tam: empty partition")
	}
	for i, w := range p {
		if w <= 0 {
			return fmt.Errorf("tam: bus %d has width %d", i, w)
		}
	}
	if maxTotal > 0 && p.TotalWidth() > maxTotal {
		return fmt.Errorf("tam: partition uses %d wires, budget %d", p.TotalWidth(), maxTotal)
	}
	return nil
}

// Clone returns a copy of the partition.
func (p Partition) Clone() Partition {
	c := make(Partition, len(p))
	copy(c, p)
	return c
}

// Even returns a partition of total wires into k buses with widths as
// equal as possible (wider buses first). It returns an error when the
// partition would create zero-width buses.
func Even(total, k int) (Partition, error) {
	if k <= 0 {
		return nil, fmt.Errorf("tam: bus count %d", k)
	}
	if total < k {
		return nil, fmt.Errorf("tam: cannot split %d wires into %d buses", total, k)
	}
	p := make(Partition, k)
	base, rem := total/k, total%k
	for i := range p {
		p[i] = base
		if i < rem {
			p[i]++
		}
	}
	return p, nil
}
