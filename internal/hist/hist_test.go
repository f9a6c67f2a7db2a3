package hist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBinningValidation(t *testing.T) {
	if _, err := NewBinning(0, 200, 20); err != nil {
		t.Errorf("valid binning rejected: %v", err)
	}
	bad := []struct {
		rmin, rmax float64
		n          int
	}{
		{0, 200, 0},
		{0, 200, -3},
		{-1, 200, 10},
		{200, 200, 10},
		{300, 200, 10},
		{math.NaN(), 200, 10},
		{0, math.NaN(), 10},
		{0, math.Inf(1), 10},
	}
	for _, c := range bad {
		if _, err := NewBinning(c.rmin, c.rmax, c.n); err == nil {
			t.Errorf("NewBinning(%v,%v,%d) accepted", c.rmin, c.rmax, c.n)
		}
	}
}

func TestBinningIndex(t *testing.T) {
	b, _ := NewBinning(10, 110, 10) // width 10
	cases := []struct {
		r    float64
		want int
	}{
		{9.999, -1},
		{10, 0},
		{19.999, 0},
		{20, 1},
		{105, 9},
		{109.999, 9},
		{110, -1},
		{500, -1},
		{0, -1},
	}
	for _, c := range cases {
		if got := b.Index(c.r); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestBinningIndexConsistentWithEdges(t *testing.T) {
	b, _ := NewBinning(0, 200, 20)
	edges := b.Edges()
	if len(edges) != 21 {
		t.Fatalf("%d edges", len(edges))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		r := rng.Float64() * 220
		got := b.Index(r)
		want := -1
		for j := 0; j < b.N; j++ {
			if r >= edges[j] && r < edges[j+1] {
				want = j
			}
		}
		if got != want {
			t.Fatalf("Index(%v) = %d, want %d", r, got, want)
		}
	}
}

func TestBinningCenter(t *testing.T) {
	b, _ := NewBinning(0, 200, 20)
	if got := b.Center(0); got != 5 {
		t.Errorf("Center(0) = %v", got)
	}
	if got := b.Center(19); got != 195 {
		t.Errorf("Center(19) = %v", got)
	}
	// Center must land inside its own bin.
	for i := 0; i < b.N; i++ {
		if b.Index(b.Center(i)) != i {
			t.Errorf("Center(%d) not in bin %d", i, i)
		}
	}
}

func TestInvWidthMatchesIndex(t *testing.T) {
	// Property: a hot loop that hoists InvWidth and computes
	// int((r-RMin)*invW) must land every in-range radius in exactly the bin
	// Index reports — the contract the engine's gather pass relies on.
	f := func(seed int64, rminRaw, spanRaw uint16, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rmin := float64(rminRaw) / 100
		span := float64(spanRaw)/100 + 0.5
		n := int(nRaw%64) + 1
		b, err := NewBinning(rmin, rmin+span, n)
		if err != nil {
			return true
		}
		invW := b.InvWidth()
		for i := 0; i < 200; i++ {
			r := rmin + (rng.Float64()*1.2-0.1)*span
			want := b.Index(r)
			got := -1
			if r >= b.RMin && r < b.RMax {
				got = int((r - b.RMin) * invW)
				if got >= b.N {
					got = b.N - 1
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
