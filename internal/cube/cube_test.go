package cube

import (
	"math/rand"
	"testing"
	"testing/quick"

	"soctap/internal/bitvec"
)

func TestSetGet(t *testing.T) {
	c := NewCube(10)
	if c.Get(3) != bitvec.DontCare {
		t.Fatal("fresh cube bit not X")
	}
	c.Set(3, true)
	c.Set(7, false)
	c.Set(0, true)
	if c.Get(3) != bitvec.One || c.Get(7) != bitvec.Zero || c.Get(0) != bitvec.One {
		t.Error("Set/Get mismatch")
	}
	if c.CareCount() != 3 {
		t.Errorf("CareCount = %d, want 3", c.CareCount())
	}
	// Overwrite keeps count stable.
	c.Set(3, false)
	if c.Get(3) != bitvec.Zero || c.CareCount() != 3 {
		t.Error("overwrite failed")
	}
	// Care list stays sorted.
	for i := 1; i < len(c.Care); i++ {
		if c.Care[i-1].Pos >= c.Care[i].Pos {
			t.Fatalf("care list not sorted: %v", c.Care)
		}
	}
}

func TestCubeBoundsPanic(t *testing.T) {
	c := NewCube(4)
	for _, f := range []func(){
		func() { c.Set(-1, true) },
		func() { c.Set(4, true) },
		func() { c.Get(9) },
		func() { NewCube(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// fromTrits converts a trit vector into a sparse cube, the inverse of
// ToTrits.
func fromTrits(tv *bitvec.TritVector) *Cube {
	c := NewCube(tv.Len())
	for i := 0; i < tv.Len(); i++ {
		switch tv.Get(i) {
		case bitvec.Zero:
			c.Care = append(c.Care, CareBit{Pos: i, Value: false})
		case bitvec.One:
			c.Care = append(c.Care, CareBit{Pos: i, Value: true})
		}
	}
	return c
}

func TestTritsRoundTrip(t *testing.T) {
	tv, _ := bitvec.TritFromString("0X1X10XX1")
	c := fromTrits(tv)
	if c.CareCount() != 5 {
		t.Fatalf("CareCount = %d, want 5", c.CareCount())
	}
	back := c.ToTrits()
	if !back.Equal(tv) {
		t.Errorf("round trip = %s, want %s", back, tv)
	}
}

func TestNormalize(t *testing.T) {
	c := &Cube{NumBits: 8, Care: []CareBit{{5, true}, {2, false}, {5, false}, {2, false}}}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(c.Care) != 2 || c.Care[0].Pos != 2 || c.Care[1].Pos != 5 {
		t.Fatalf("normalized care = %v", c.Care)
	}
	if c.Care[1].Value != false {
		t.Error("later duplicate assignment must win")
	}
	bad := &Cube{NumBits: 4, Care: []CareBit{{4, true}}}
	if err := bad.Normalize(); err == nil {
		t.Error("Normalize accepted out-of-range position")
	}
}

func TestCompatibleAndMerge(t *testing.T) {
	a := NewCube(6)
	a.Set(0, true)
	a.Set(2, false)
	b := NewCube(6)
	b.Set(2, false)
	b.Set(4, true)
	if !a.CompatibleWith(b) {
		t.Fatal("compatible cubes reported incompatible")
	}
	m, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.CareCount() != 3 || m.Get(0) != bitvec.One || m.Get(2) != bitvec.Zero || m.Get(4) != bitvec.One {
		t.Errorf("merge result wrong: %v", m.Care)
	}
	b.Set(0, false)
	if a.CompatibleWith(b) {
		t.Error("conflicting cubes reported compatible")
	}
	if _, err := a.Merge(b); err == nil {
		t.Error("Merge accepted conflicting cubes")
	}
	if _, err := a.Merge(NewCube(5)); err == nil {
		t.Error("Merge accepted width mismatch")
	}
	if a.CompatibleWith(NewCube(5)) {
		t.Error("width mismatch reported compatible")
	}
}

func TestSetCollection(t *testing.T) {
	s := NewSet(16)
	c := NewCube(16)
	c.Set(1, true)
	if err := s.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(NewCube(8)); err == nil {
		t.Error("Add accepted wrong-width cube")
	}
	if s.Len() != 1 || s.TotalCareBits() != 1 {
		t.Error("set accounting wrong")
	}
	if s.RawVolume() != 16 {
		t.Errorf("RawVolume = %d, want 16", s.RawVolume())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{NumBits: 2000, Patterns: 50, Density: 0.03, DensityDecay: 0.8, Clustering: 0.7, Seed: 42}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic pattern count")
	}
	for i := range a.Cubes {
		if !a.Cubes[i].ToTrits().Equal(b.Cubes[i].ToTrits()) {
			t.Fatalf("pattern %d differs between identical-seed runs", i)
		}
	}
	c, _ := Generate(GenSpec{NumBits: 2000, Patterns: 50, Density: 0.03, Seed: 43})
	same := true
	for i := range a.Cubes {
		if !a.Cubes[i].ToTrits().Equal(c.Cubes[i].ToTrits()) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical test sets")
	}
}

func TestGenerateDensity(t *testing.T) {
	for _, d := range []float64{0.01, 0.05, 0.44, 0.66} {
		s, err := Generate(GenSpec{NumBits: 5000, Patterns: 40, Density: d, DensityDecay: 0.5, Clustering: 0.6, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		got := s.Density()
		if got < d*0.85 || got > d*1.15 {
			t.Errorf("density %g: generated %g, want within 15%%", d, got)
		}
	}
}

func TestGenerateDensityDecay(t *testing.T) {
	s, err := Generate(GenSpec{NumBits: 4000, Patterns: 60, Density: 0.05, DensityDecay: 1, Clustering: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	first := s.Cubes[0].CareCount()
	last := s.Cubes[s.Len()-1].CareCount()
	if first <= last {
		t.Errorf("decay profile broken: first %d care bits, last %d", first, last)
	}
}

func TestGenerateClusteringEffect(t *testing.T) {
	// Clustered sets must have noticeably lower mean pairwise distance
	// between consecutive care bits than scattered sets.
	spread := func(clustering float64) float64 {
		s, err := Generate(GenSpec{NumBits: 20000, Patterns: 20, Density: 0.02, Clustering: clustering, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		total, n := 0.0, 0
		for _, c := range s.Cubes {
			for i := 1; i < len(c.Care); i++ {
				total += float64(c.Care[i].Pos - c.Care[i-1].Pos)
				n++
			}
		}
		return total / float64(n)
	}
	tight := spread(0.95)
	loose := spread(0.0)
	if tight >= loose {
		t.Errorf("clustering has no effect: tight gap %.1f >= loose gap %.1f", tight, loose)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenSpec{
		{NumBits: 0, Patterns: 1, Density: 0.1},
		{NumBits: 10, Patterns: 0, Density: 0.1},
		{NumBits: 10, Patterns: 1, Density: 0},
		{NumBits: 10, Patterns: 1, Density: 1.5},
	}
	for i, g := range bad {
		if _, err := Generate(g); err == nil {
			t.Errorf("spec %d accepted: %+v", i, g)
		}
	}
}

func TestGenerateSaturated(t *testing.T) {
	// Density 1 must fully specify every cube even with clustering.
	s, err := Generate(GenSpec{NumBits: 64, Patterns: 5, Density: 1, Clustering: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range s.Cubes {
		if c.CareCount() != 64 {
			t.Errorf("cube %d: care %d, want 64", i, c.CareCount())
		}
	}
}

func TestComputeStats(t *testing.T) {
	s, _ := Generate(GenSpec{NumBits: 1000, Patterns: 10, Density: 0.1, Seed: 5})
	st := s.ComputeStats()
	if st.Patterns != 10 || st.BitsPerCube != 1000 {
		t.Error("stats shape wrong")
	}
	if st.MinCare <= 0 || st.MaxCare < st.MinCare || st.CareBits <= 0 {
		t.Errorf("stats values wrong: %+v", st)
	}
	if st.RawVolumeBit != 10000 {
		t.Errorf("RawVolumeBit = %d, want 10000", st.RawVolumeBit)
	}
}

// Property: Merge of compatible cubes covers both inputs and is symmetric.
func TestQuickMerge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 10
		base := NewCube(n)
		for i := 0; i < n/4; i++ {
			base.Set(rng.Intn(n), rng.Intn(2) == 0)
		}
		// Derive two compatible sub-cubes of base.
		sub := func() *Cube {
			c := NewCube(n)
			for _, cb := range base.Care {
				if rng.Intn(2) == 0 {
					c.Set(cb.Pos, cb.Value)
				}
			}
			return c
		}
		a, b := sub(), sub()
		m1, err1 := a.Merge(b)
		m2, err2 := b.Merge(a)
		if err1 != nil || err2 != nil {
			return false
		}
		if !m1.ToTrits().Equal(m2.ToTrits()) {
			return false
		}
		return m1.ToTrits().Covers(a.ToTrits()) && m1.ToTrits().Covers(b.ToTrits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: sparse/dense representations are interchangeable.
func TestQuickSparseDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		tv := bitvec.NewTrit(n)
		for i := 0; i < n; i++ {
			tv.Set(i, bitvec.Trit(rng.Intn(3)))
		}
		c := fromTrits(tv)
		if c.CareCount() != tv.CareCount() {
			return false
		}
		return c.ToTrits().Equal(tv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerateIndustrial(b *testing.B) {
	spec := GenSpec{NumBits: 50000, Patterns: 200, Density: 0.02, DensityDecay: 0.8, Clustering: 0.7, Seed: 11}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
