// Package catalog provides galaxy catalogs: the only input Galactos needs
// ("the 3-D positions of the galaxies", Sec. 1.3), plus per-galaxy weights
// so data and random catalogs can be combined into a single weighted field
// (Sec. 6.1). It also contains the synthetic generators that stand in for
// the Outer Rim simulation (Sec. 4.2): uniform Poisson boxes, a clustered
// halo model, BAO shell injection, redshift-space distortion, and the
// Soneira–Peebles hierarchical model, all at configurable number density.
package catalog

import (
	"fmt"
	"math"

	"galactos/internal/geom"
)

// Galaxy is a single tracer: a position and a weight. Data galaxies carry
// weight +1; random-catalog galaxies carry negative weights scaled so the
// weighted field has zero mean (the D-R construction).
type Galaxy struct {
	Pos    geom.Vec3
	Weight float64
}

// Catalog is a set of galaxies in a (possibly periodic) volume.
type Catalog struct {
	Galaxies []Galaxy
	// Box describes the periodic boundary; Box.L == 0 means open boundaries
	// (a survey-like geometry rather than a simulation cube).
	Box geom.Periodic
}

// Len returns the number of galaxies.
func (c *Catalog) Len() int { return len(c.Galaxies) }

// Positions returns a freshly allocated slice of all positions.
func (c *Catalog) Positions() []geom.Vec3 {
	out := make([]geom.Vec3, len(c.Galaxies))
	for i, g := range c.Galaxies {
		out[i] = g.Pos
	}
	return out
}

// Weights returns a freshly allocated slice of all weights.
func (c *Catalog) Weights() []float64 {
	out := make([]float64, len(c.Galaxies))
	for i, g := range c.Galaxies {
		out[i] = g.Weight
	}
	return out
}

// Density returns the number density n = N / L^3 for a periodic cube.
// It returns 0 for open-boundary catalogs (no well-defined volume).
func (c *Catalog) Density() float64 {
	if c.Box.L <= 0 {
		return 0
	}
	v := c.Box.L * c.Box.L * c.Box.L
	return float64(len(c.Galaxies)) / v
}

// TotalWeight returns the sum of all galaxy weights.
func (c *Catalog) TotalWeight() float64 {
	s := 0.0
	for _, g := range c.Galaxies {
		s += g.Weight
	}
	return s
}

// Extent applies the acceptance rule over one pass of a catalog, the one
// rule every first pass on the run path applies (ReadAll for the local
// backend, the sharded scan, the service's Hash): every position and weight
// is finite and, in a periodic box, every coordinate lies in [0, L). The
// engine does not fail on a galaxy that breaks it: a non-finite one drops its
// pairs or carries the NaN into every sum, and one outside the box loses the
// pairs whose separation crosses the box's faces. Add takes the pass's
// galaxies in order; Check takes the box once the pass has ended, because a
// CSV cursor knows its box only then. The per-axis range Add accumulates is
// also the root an open catalog's shard plan cuts.
type Extent struct {
	lo, hi geom.Vec3
	n      int // galaxies added, the catalog index of the next one
}

// NewExtent returns the extent of no galaxies.
func NewExtent() Extent {
	inf := math.Inf(1)
	return Extent{lo: geom.Vec3{X: inf, Y: inf, Z: inf}, hi: geom.Vec3{X: -inf, Y: -inf, Z: -inf}}
}

// Add refuses a non-finite position or weight among the next galaxies of the
// pass, naming the galaxy by its catalog index, and widens e to cover them.
func (e *Extent) Add(gals []Galaxy) error {
	lo, hi := e.lo, e.hi
	for i, g := range gals {
		p := g.Pos
		// x - x is 0 for a finite x and NaN for NaN and the infinities.
		if (p.X-p.X)+(p.Y-p.Y)+(p.Z-p.Z) != 0 {
			return fmt.Errorf("catalog: galaxy %d has non-finite position %v", e.n+i, p)
		}
		if g.Weight-g.Weight != 0 {
			return fmt.Errorf("catalog: galaxy %d has non-finite weight %v", e.n+i, g.Weight)
		}
		// Compares, not math.Min/Max: a new extreme is rare, so each branch
		// is predicted and Add costs ~4 ns a galaxy, not ~15. Which of -0
		// and +0 is kept is immaterial: the bounds are only compared and
		// subtracted.
		if p.X < lo.X {
			lo.X = p.X
		}
		if p.X > hi.X {
			hi.X = p.X
		}
		if p.Y < lo.Y {
			lo.Y = p.Y
		}
		if p.Y > hi.Y {
			hi.Y = p.Y
		}
		if p.Z < lo.Z {
			lo.Z = p.Z
		}
		if p.Z > hi.Z {
			hi.Z = p.Z
		}
	}
	e.lo, e.hi = lo, hi
	e.n += len(gals)
	return nil
}

// Check refuses a non-finite box side (CheckBox) and, for a periodic box, a
// coordinate outside [0, L), naming the axis and the range the pass found.
func (e Extent) Check(b geom.Periodic) error {
	if err := CheckBox(b); err != nil || b.L <= 0 {
		return err
	}
	for axis, r := range [3][2]float64{{e.lo.X, e.hi.X}, {e.lo.Y, e.hi.Y}, {e.lo.Z, e.hi.Z}} {
		if r[0] < 0 || r[1] >= b.L {
			return fmt.Errorf("catalog: %c coordinates span [%g, %g], outside the periodic box [0, %g): wrap positions into [0, L)",
				"xyz"[axis], r[0], r[1], b.L)
		}
	}
	return nil
}

// Root is the region a shard plan cuts: the periodic box [0, L]³, or for
// open boundaries the extent with its upper faces raised one ulp, so the
// largest coordinate on each axis lies inside the half-open box at any
// magnitude. An extent of no galaxies gives the empty box.
func (e Extent) Root(l float64) geom.Box {
	switch {
	case l > 0:
		return geom.Box{Max: geom.Vec3{X: l, Y: l, Z: l}}
	case e.lo.X > e.hi.X:
		return geom.Box{}
	}
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	return geom.Box{Min: e.lo, Max: geom.Vec3{X: up(e.hi.X), Y: up(e.hi.Y), Z: up(e.hi.Z)}}
}

// CheckBox rejects a non-finite box side: a NaN side fails every comparison
// the geometry makes against it, so a run would silently bin no pair.
func CheckBox(b geom.Periodic) error {
	if b.L-b.L != 0 {
		return fmt.Errorf("catalog: non-finite box side %v", b.L)
	}
	return nil
}

// Validate applies the acceptance rule (Extent) to the whole catalog.
func (c *Catalog) Validate() error {
	e := NewExtent()
	if err := e.Add(c.Galaxies); err != nil {
		return err
	}
	return e.Check(c.Box)
}

// WithDataMinusRandom builds the weighted D-R field used for
// survey-geometry correction (Sec. 6.1): data galaxies keep their weights;
// random galaxies are appended with weight -sum(w_data)/N_random so the
// combined field has zero total weight.
func WithDataMinusRandom(data, random *Catalog) (*Catalog, error) {
	if random.Len() == 0 {
		return nil, fmt.Errorf("catalog: empty random catalog")
	}
	if data.Box.L != random.Box.L {
		return nil, fmt.Errorf("catalog: data and random box mismatch")
	}
	wd := data.TotalWeight()
	wr := -wd / float64(random.Len())
	out := &Catalog{Box: data.Box, Galaxies: make([]Galaxy, 0, data.Len()+random.Len())}
	out.Galaxies = append(out.Galaxies, data.Galaxies...)
	for _, g := range random.Galaxies {
		out.Galaxies = append(out.Galaxies, Galaxy{Pos: g.Pos, Weight: wr})
	}
	return out, nil
}

// SubBox returns the galaxies inside box (half-open) as a new open-boundary
// catalog with coordinates translated so box.Min is the origin. Used to cut
// the density-matched weak-scaling cubes of Table 1 out of a parent volume.
func (c *Catalog) SubBox(box geom.Box) *Catalog {
	out := &Catalog{}
	for _, g := range c.Galaxies {
		if box.Contains(g.Pos) {
			out.Galaxies = append(out.Galaxies, Galaxy{Pos: g.Pos.Sub(box.Min), Weight: g.Weight})
		}
	}
	return out
}
