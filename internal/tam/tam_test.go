package tam

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEven(t *testing.T) {
	p, err := Even(31, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalWidth() != 31 || len(p) != 3 {
		t.Fatalf("Even(31,3) = %v", p)
	}
	if p[0] != 11 || p[1] != 10 || p[2] != 10 {
		t.Errorf("Even(31,3) = %v, want [11 10 10]", p)
	}
	if _, err := Even(2, 3); err == nil {
		t.Error("Even(2,3) accepted")
	}
	if _, err := Even(5, 0); err == nil {
		t.Error("Even(5,0) accepted")
	}
}

func TestValidate(t *testing.T) {
	if err := (Partition{4, 4}).Validate(8); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	if err := (Partition{}).Validate(8); err == nil {
		t.Error("empty partition accepted")
	}
	if err := (Partition{4, 0}).Validate(8); err == nil {
		t.Error("zero-width bus accepted")
	}
	if err := (Partition{5, 4}).Validate(8); err == nil {
		t.Error("over-budget partition accepted")
	}
	if err := (Partition{5, 4}).Validate(0); err != nil {
		t.Error("unbounded budget should not be enforced")
	}
}

// Property: Even partitions conserve wires and differ by at most 1.
func TestQuickPartitions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(8) + 1
		total := k + rng.Intn(64)
		p, err := Even(total, k)
		if err != nil {
			return false
		}
		if p.TotalWidth() != total {
			return false
		}
		min, max := p[0], p[0]
		for _, w := range p {
			if w < min {
				min = w
			}
			if w > max {
				max = w
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
