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

// CheckFinite rejects a non-finite position or weight among gals, naming
// the galaxy by its catalog index base+i. Every first pass over a catalog on
// the run path calls it (ReadAll for the local backend, the sharded scan, the
// service's Hash), because the engine does not fail on such a galaxy — it
// silently drops its pairs or carries the NaN into every sum.
func CheckFinite(gals []Galaxy, base int) error {
	for i, g := range gals {
		p := g.Pos
		// x - x is 0 for a finite x and NaN for NaN and the infinities.
		if (p.X-p.X)+(p.Y-p.Y)+(p.Z-p.Z) != 0 {
			return fmt.Errorf("catalog: galaxy %d has non-finite position %v", base+i, p)
		}
		if g.Weight-g.Weight != 0 {
			return fmt.Errorf("catalog: galaxy %d has non-finite weight %v", base+i, g.Weight)
		}
	}
	return nil
}

// CheckBox rejects a non-finite box side: a NaN side fails every comparison
// the geometry makes against it, so a run would silently bin no pair.
func CheckBox(b geom.Periodic) error {
	if b.L-b.L != 0 {
		return fmt.Errorf("catalog: non-finite box side %v", b.L)
	}
	return nil
}

// Validate checks structural invariants: finite coordinates and, for
// periodic catalogs, positions inside [0, L)^3.
func (c *Catalog) Validate() error {
	if err := CheckFinite(c.Galaxies, 0); err != nil {
		return err
	}
	if c.Box.L > 0 {
		for i, g := range c.Galaxies {
			p := g.Pos
			if p.X < 0 || p.X >= c.Box.L || p.Y < 0 || p.Y >= c.Box.L || p.Z < 0 || p.Z >= c.Box.L {
				return fmt.Errorf("catalog: galaxy %d at %v outside periodic box [0,%v)", i, p, c.Box.L)
			}
		}
	}
	return nil
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
