package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewVectorZeroed(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
	}
	if v.OnesCount() != 0 {
		t.Fatalf("OnesCount = %d, want 0", v.OnesCount())
	}
}

func TestVectorSetGet(t *testing.T) {
	v := New(200)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range idx {
		v.Set(i, true)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := v.OnesCount(); got != len(idx) {
		t.Errorf("OnesCount = %d, want %d", got, len(idx))
	}
	v.Set(64, false)
	if v.Get(64) {
		t.Error("bit 64 still set after clearing")
	}
}

func TestVectorSetAll(t *testing.T) {
	v := New(70)
	v.SetAll(true)
	if v.OnesCount() != 70 {
		t.Fatalf("OnesCount after SetAll(true) = %d, want 70", v.OnesCount())
	}
	v.SetAll(false)
	if v.OnesCount() != 0 {
		t.Fatalf("OnesCount after SetAll(false) = %d, want 0", v.OnesCount())
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := New(10)
	v.Set(3, true)
	c := v.Clone()
	c.Set(5, true)
	if v.Get(5) {
		t.Error("mutating clone affected original")
	}
	if !c.Get(3) {
		t.Error("clone lost original bit")
	}
}

// TestVectorResetAndAppend: Reset leaves n zero bits whatever the vector
// held before, and Append concatenates at any bit offset, matching a
// per-bit reference and keeping the tail beyond Len zero (so Equal
// holds), also when it grows into words a Reset kept.
func TestVectorResetAndAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	random := func(n int) *Vector {
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		return v
	}
	v := random(300)
	for _, n := range []int{0, 5, 64, 200, 129, 400} {
		v.Reset(n)
		if !v.Equal(New(n)) {
			t.Fatalf("Reset(%d) left %s", n, v)
		}
	}
	// Appending into capacity a Reset kept must not pick up stale words.
	v = random(500)
	v.Reset(3)
	ref := make([]bool, 3)
	for trial := 0; trial < 50; trial++ {
		o := random(rng.Intn(150))
		v.Append(o)
		for i := 0; i < o.Len(); i++ {
			ref = append(ref, o.Get(i))
		}
		want := New(len(ref))
		for i, b := range ref {
			want.Set(i, b)
		}
		if !v.Equal(want) {
			t.Fatalf("after %d appends: got %s, want %s", trial+1, v, want)
		}
	}
}

func TestVectorEqual(t *testing.T) {
	a := New(65)
	b := New(65)
	if !a.Equal(b) {
		t.Error("fresh equal-length vectors not Equal")
	}
	a.Set(64, true)
	if a.Equal(b) {
		t.Error("differing vectors reported Equal")
	}
	if a.Equal(New(64)) {
		t.Error("different lengths reported Equal")
	}
}

func TestVectorStringRoundTrip(t *testing.T) {
	s := "0110100011110000101"
	v, err := FromString(s)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != s {
		t.Errorf("round trip = %q, want %q", v.String(), s)
	}
	if _, err := FromString("01a"); err == nil {
		t.Error("FromString accepted invalid character")
	}
}

func TestVectorOutOfRangePanics(t *testing.T) {
	v := New(8)
	for _, i := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestTritBasics(t *testing.T) {
	tv := NewTrit(100)
	for i := 0; i < tv.Len(); i++ {
		if tv.Get(i) != DontCare {
			t.Fatalf("fresh trit vector position %d = %v, want X", i, tv.Get(i))
		}
	}
	tv.Set(0, One)
	tv.Set(1, Zero)
	tv.Set(99, One)
	if tv.Get(0) != One || tv.Get(1) != Zero || tv.Get(99) != One {
		t.Error("Set/Get mismatch")
	}
	if tv.CareCount() != 3 || tv.OnesCount() != 2 || tv.ZerosCount() != 1 {
		t.Errorf("counts = care %d ones %d zeros %d", tv.CareCount(), tv.OnesCount(), tv.ZerosCount())
	}
	tv.Set(0, DontCare)
	if tv.Get(0) != DontCare || tv.CareCount() != 2 {
		t.Error("resetting to DontCare failed")
	}
}

func TestTritValuePlaneClearedOnX(t *testing.T) {
	// Setting One then DontCare must clear the value plane so Equal works
	// word-wise.
	a := NewTrit(10)
	a.Set(4, One)
	a.Set(4, DontCare)
	b := NewTrit(10)
	if !a.Equal(b) {
		t.Error("X-with-stale-value not equal to fresh X vector")
	}
}

func TestTritString(t *testing.T) {
	s := "01X10XX1"
	tv, err := TritFromString(s)
	if err != nil {
		t.Fatal(err)
	}
	if tv.String() != s {
		t.Errorf("round trip = %q, want %q", tv.String(), s)
	}
	if _, err := TritFromString("01?"); err == nil {
		t.Error("TritFromString accepted invalid char")
	}
}

func TestTritCompatibleWith(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"01X", "01X", true},
		{"01X", "011", true},
		{"01X", "00X", false},
		{"XXX", "010", true},
		{"1X0", "1X1", false},
		{"01", "01X", false}, // length mismatch
	}
	for _, c := range cases {
		a, _ := TritFromString(c.a)
		b, _ := TritFromString(c.b)
		if got := a.CompatibleWith(b); got != c.want {
			t.Errorf("CompatibleWith(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := b.CompatibleWith(a); got != c.want {
			t.Errorf("CompatibleWith(%q,%q) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestTritCovers(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"010", "01X", true},
		{"010", "010", true},
		{"01X", "010", false}, // a leaves X where b specifies
		{"011", "010", false},
		{"01", "01X", false},
	}
	for _, c := range cases {
		a, _ := TritFromString(c.a)
		b, _ := TritFromString(c.b)
		if got := a.Covers(b); got != c.want {
			t.Errorf("Covers(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTritFill(t *testing.T) {
	tv, _ := TritFromString("0X1XX")
	f0 := tv.Fill(Zero)
	if f0.String() != "00100" {
		t.Errorf("Fill(Zero) = %q, want 00100", f0.String())
	}
	f1 := tv.Fill(One)
	if f1.String() != "01111" {
		t.Errorf("Fill(One) = %q, want 01111", f1.String())
	}
	if !f0.Covers(tv) || !f1.Covers(tv) {
		t.Error("filled vector does not cover its cube")
	}
	if tv.String() != "0X1XX" {
		t.Error("Fill mutated the receiver")
	}
	defer func() {
		if recover() == nil {
			t.Error("Fill(DontCare) did not panic")
		}
	}()
	tv.Fill(DontCare)
}

func TestTritFromByte(t *testing.T) {
	for _, c := range []struct {
		b    byte
		want Trit
	}{{'0', Zero}, {'1', One}, {'x', DontCare}, {'X', DontCare}, {'-', DontCare}} {
		got, err := TritFromByte(c.b)
		if err != nil || got != c.want {
			t.Errorf("TritFromByte(%q) = %v,%v want %v", c.b, got, err, c.want)
		}
	}
	if _, err := TritFromByte('2'); err == nil {
		t.Error("TritFromByte('2') succeeded")
	}
}

// Property: OnesCount equals a naive per-bit count for random vectors.
func TestQuickOnesCount(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		v := New(n)
		naive := 0
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				v.Set(i, true)
				naive++
			}
		}
		return v.OnesCount() == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a cube filled with either constant stays compatible with and
// covers the original cube.
func TestQuickFillCoversAndCompatible(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		rng := rand.New(rand.NewSource(seed))
		tv := NewTrit(n)
		for i := 0; i < n; i++ {
			tv.Set(i, Trit(rng.Intn(3)))
		}
		f0 := tv.Fill(Zero)
		f1 := tv.Fill(One)
		return f0.Covers(tv) && f1.Covers(tv) &&
			f0.CompatibleWith(tv) && f1.CompatibleWith(tv) &&
			f0.CareCount() == n && f1.CareCount() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Covers implies CompatibleWith; Equal implies both.
func TestQuickCoversImpliesCompatible(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%200) + 1
		rng := rand.New(rand.NewSource(seed))
		a := NewTrit(n)
		for i := 0; i < n; i++ {
			a.Set(i, Trit(rng.Intn(3)))
		}
		// b: a with some X positions specified (so b covers a).
		b := a.Clone()
		for i := 0; i < n; i++ {
			if b.Get(i) == DontCare && rng.Intn(2) == 0 {
				b.Set(i, Trit(rng.Intn(2)))
			}
		}
		if !b.Covers(a) || !b.CompatibleWith(a) {
			return false
		}
		return a.Equal(a.Clone()) && a.Covers(a.Clone()) && a.CompatibleWith(a.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTritStringMethod(t *testing.T) {
	if Zero.String() != "0" || One.String() != "1" || DontCare.String() != "X" {
		t.Error("Trit.String mismatch")
	}
	if Trit(9).String() != "Trit(9)" {
		t.Errorf("Trit(9).String() = %q", Trit(9).String())
	}
}

func BenchmarkOnesCount4k(b *testing.B) {
	v := New(4096)
	for i := 0; i < 4096; i += 3 {
		v.Set(i, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.OnesCount()
	}
}

func BenchmarkTritCompatible4k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewTrit(4096)
	c := NewTrit(4096)
	for i := 0; i < 4096; i++ {
		a.Set(i, Trit(rng.Intn(3)))
		if rng.Intn(2) == 0 {
			c.Set(i, a.Get(i))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.CompatibleWith(c)
	}
}
