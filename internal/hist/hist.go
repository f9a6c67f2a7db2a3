// Package hist provides the radial binning of Sec. 3.3.1: pairs of one
// primary with its secondaries are grouped per radial shell so vector
// operations always touch the multipole arrays of a single radial bin. The
// grouping itself is done by the engine's bin-sorted pair tiles
// (internal/core); this package owns the shell geometry.
package hist

import (
	"fmt"
	"math"
)

// Binning describes NBins equal-width spherical shells covering [RMin, RMax).
// Shell index b covers [RMin + b*w, RMin + (b+1)*w) with w = (RMax-RMin)/N.
type Binning struct {
	RMin, RMax float64
	N          int
}

// NewBinning validates and returns a binning. It owns the rule for a radial
// range: 0 <= rmin < rmax < +Inf, written so that a NaN fails it.
func NewBinning(rmin, rmax float64, n int) (Binning, error) {
	if n <= 0 {
		return Binning{}, fmt.Errorf("hist: bin count %d must be positive", n)
	}
	if !(rmin >= 0) || !(rmax > rmin) || math.IsInf(rmax, 1) {
		return Binning{}, fmt.Errorf("hist: invalid radial range [%v, %v)", rmin, rmax)
	}
	return Binning{RMin: rmin, RMax: rmax, N: n}, nil
}

// Width returns the shell width.
func (b Binning) Width() float64 { return (b.RMax - b.RMin) / float64(b.N) }

// InvWidth returns shells per unit radius. Hot loops hoist it so binning a
// pair costs one multiply instead of a division; Index uses the identical
// product, so a hoisted caller bins every radius exactly like Index does.
func (b Binning) InvWidth() float64 { return float64(b.N) / (b.RMax - b.RMin) }

// Index returns the shell index for radius r, or -1 if r lies outside
// [RMin, RMax).
func (b Binning) Index(r float64) int {
	if r < b.RMin || r >= b.RMax {
		return -1
	}
	i := int((r - b.RMin) * b.InvWidth())
	if i >= b.N { // guard against floating-point edge
		i = b.N - 1
	}
	return i
}

// Center returns the midpoint radius of shell i.
func (b Binning) Center(i int) float64 {
	return b.RMin + float64((float64(i)+0.5)*b.Width())
}

// Edges returns the N+1 shell boundaries.
func (b Binning) Edges() []float64 {
	e := make([]float64, b.N+1)
	for i := range e {
		e[i] = b.RMin + float64(i)*b.Width()
	}
	return e
}
