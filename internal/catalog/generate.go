package catalog

import (
	"fmt"
	"math"
	"math/rand"

	"galactos/internal/geom"
)

// OuterRimDensity is the galaxy number density of the paper's full dataset:
// ~0.071 galaxies (Mpc/h)^-3 (Sec. 5.2), i.e. 1.951e9 galaxies in a
// (3000 Mpc/h)^3 box. Weak-scaling datasets are constructed at this density.
const OuterRimDensity = 1.951e9 / (3000.0 * 3000.0 * 3000.0)

// Uniform generates n galaxies uniformly at random in a periodic cube of
// side l, all with weight 1. This is the "spatially random distribution"
// against which correlation excesses are defined, and the workload used for
// performance measurements (randoms perform like data, Sec. 2.3).
func Uniform(n int, l float64, seed int64) *Catalog {
	rng := rand.New(rand.NewSource(seed))
	c := &Catalog{Box: geom.Periodic{L: l}, Galaxies: make([]Galaxy, n)}
	for i := range c.Galaxies {
		c.Galaxies[i] = Galaxy{
			Pos:    geom.Vec3{X: rng.Float64() * l, Y: rng.Float64() * l, Z: rng.Float64() * l},
			Weight: 1,
		}
	}
	return c
}

// ClusterParams configures the halo-model generator.
type ClusterParams struct {
	// FracField is the fraction of galaxies placed uniformly (unclustered).
	FracField float64
	// MeanPerCluster is the mean number of satellites per halo center.
	MeanPerCluster float64
	// ClusterRadius is the Gaussian scale of satellite offsets (Mpc/h).
	ClusterRadius float64
	// ZStretch scales satellite offsets along the z axis, emulating
	// redshift-space distortions in the plane-parallel approximation:
	// < 1 compresses structures along the line of sight (Kaiser-like
	// coherent infall); > 1 stretches them (Finger-of-God-like velocity
	// dispersion). 0 or 1 means no distortion.
	ZStretch float64
}

// DefaultClusterParams mimics a BOSS-like halo occupation at survey scales.
func DefaultClusterParams() ClusterParams {
	return ClusterParams{
		FracField:      0.3,
		MeanPerCluster: 8,
		ClusterRadius:  6,
		ZStretch:       1,
	}
}

// Clustered generates approximately n galaxies in a periodic cube of side l
// with halo-model clustering: Poisson halo centers, Poisson-distributed
// satellite counts, Gaussian satellite offsets. The clustering produces the
// strong small-scale 3PCF signal that distinguishes data from randoms.
func Clustered(n int, l float64, p ClusterParams, seed int64) *Catalog {
	rng := rand.New(rand.NewSource(seed))
	if p.MeanPerCluster <= 0 {
		p.MeanPerCluster = 1
	}
	stretch := p.ZStretch
	if stretch == 0 {
		stretch = 1
	}
	c := &Catalog{Box: geom.Periodic{L: l}}
	nField := int(float64(n) * p.FracField)
	for i := 0; i < nField; i++ {
		c.Galaxies = append(c.Galaxies, Galaxy{
			Pos:    geom.Vec3{X: rng.Float64() * l, Y: rng.Float64() * l, Z: rng.Float64() * l},
			Weight: 1,
		})
	}
	target := n - nField
	for len(c.Galaxies)-nField < target {
		center := geom.Vec3{X: float64(rng.Float64() * l), Y: float64(rng.Float64() * l), Z: float64(rng.Float64() * l)}
		k := poisson(rng, p.MeanPerCluster)
		for j := 0; j < k && len(c.Galaxies)-nField < target; j++ {
			off := geom.Vec3{
				X: float64(rng.NormFloat64() * p.ClusterRadius),
				Y: float64(rng.NormFloat64() * p.ClusterRadius),
				Z: float64(rng.NormFloat64() * p.ClusterRadius * stretch),
			}
			c.Galaxies = append(c.Galaxies, Galaxy{Pos: c.Box.Wrap(center.Add(off)), Weight: 1})
		}
	}
	return c
}

// BAOParams configures the BAO-shell generator.
type BAOParams struct {
	// ShellRadius is the acoustic scale (~105 Mpc/h at z=0 in Mpc/h units).
	ShellRadius float64
	// ShellWidth is the Gaussian width of the shell.
	ShellWidth float64
	// FracShell is the fraction of galaxies placed on shells around centers
	// (the rest are uniform field galaxies).
	FracShell float64
	// PerCenter is the mean number of shell galaxies per center.
	PerCenter float64
}

// DefaultBAOParams places shells at the acoustic scale. The shell fraction
// and occupancy are exaggerated relative to real surveys so the feature is
// visible at the catalog sizes a laptop can process (the paper's figure uses
// 2 billion galaxies; see DESIGN.md on substitutions).
func DefaultBAOParams() BAOParams {
	return BAOParams{ShellRadius: 105, ShellWidth: 5, FracShell: 0.5, PerCenter: 25}
}

// BAOShells generates approximately n galaxies in a periodic cube of side l
// where a fraction of galaxies lie on thin spherical shells of the acoustic
// radius around random centers (the centers themselves are included). The
// resulting 3PCF shows the excess at r1 ~ r2 ~ ShellRadius seen in the
// paper's Fig. 1 (right panel).
func BAOShells(n int, l float64, p BAOParams, seed int64) *Catalog {
	if p.ShellRadius <= 0 || l < 4*p.ShellRadius/3 {
		// Shells must fit comfortably in the box.
		panic(fmt.Sprintf("catalog: BAO shell radius %v incompatible with box %v", p.ShellRadius, l))
	}
	rng := rand.New(rand.NewSource(seed))
	if p.PerCenter <= 0 {
		p.PerCenter = 1
	}
	c := &Catalog{Box: geom.Periodic{L: l}}
	nShell := int(float64(n) * p.FracShell)
	nField := n - nShell
	for i := 0; i < nField; i++ {
		c.Galaxies = append(c.Galaxies, Galaxy{
			Pos:    geom.Vec3{X: rng.Float64() * l, Y: rng.Float64() * l, Z: rng.Float64() * l},
			Weight: 1,
		})
	}
	placed := 0
	for placed < nShell {
		center := geom.Vec3{X: rng.Float64() * l, Y: rng.Float64() * l, Z: rng.Float64() * l}
		c.Galaxies = append(c.Galaxies, Galaxy{Pos: center, Weight: 1})
		placed++
		k := poisson(rng, p.PerCenter)
		for j := 0; j < k && placed < nShell; j++ {
			// Random direction, radius ~ N(ShellRadius, ShellWidth).
			dir := randDirection(rng)
			r := p.ShellRadius + rng.NormFloat64()*p.ShellWidth
			c.Galaxies = append(c.Galaxies, Galaxy{
				Pos:    c.Box.Wrap(center.Add(dir.Scale(r))),
				Weight: 1,
			})
			placed++
		}
	}
	return c
}

// SoneiraPeeblesParams configures the hierarchical fractal generator of
// Soneira & Peebles (1978), a classic analytic model with a power-law
// correlation function.
type SoneiraPeeblesParams struct {
	Levels  int     // recursion depth
	Eta     int     // children per level
	Lambda  float64 // radius shrink factor per level (> 1)
	R0      float64 // top-level radius
	Centers int     // number of independent top-level clusters
}

// DefaultSoneiraPeebles gives a moderately clustered fractal set.
func DefaultSoneiraPeebles() SoneiraPeeblesParams {
	return SoneiraPeeblesParams{Levels: 5, Eta: 4, Lambda: 1.9, R0: 40, Centers: 30}
}

// SoneiraPeebles generates a hierarchical clustering catalog in a periodic
// cube of side l. The number of galaxies is Centers * Eta^Levels.
func SoneiraPeebles(l float64, p SoneiraPeeblesParams, seed int64) *Catalog {
	rng := rand.New(rand.NewSource(seed))
	c := &Catalog{Box: geom.Periodic{L: l}}
	var descend func(center geom.Vec3, r float64, level int)
	descend = func(center geom.Vec3, r float64, level int) {
		if level == 0 {
			c.Galaxies = append(c.Galaxies, Galaxy{Pos: c.Box.Wrap(center), Weight: 1})
			return
		}
		for i := 0; i < p.Eta; i++ {
			dir := randDirection(rng)
			child := center.Add(dir.Scale(r * rng.Float64()))
			descend(child, r/p.Lambda, level-1)
		}
	}
	for i := 0; i < p.Centers; i++ {
		top := geom.Vec3{X: rng.Float64() * l, Y: rng.Float64() * l, Z: rng.Float64() * l}
		descend(top, p.R0, p.Levels)
	}
	return c
}

// ApplyRSD applies a plane-parallel redshift-space distortion to a copy of
// the catalog: every galaxy's z coordinate is displaced by a velocity term
// sigmaZ*N(0,1) (incoherent dispersion) and wrapped back into the box. This
// injects exactly the line-of-sight anisotropy whose measurement motivates
// the anisotropic 3PCF (Sec. 1.1: "RSD occur because galaxies' own
// velocities ... affect our inference of their positions along the line of
// sight").
func ApplyRSD(c *Catalog, sigmaZ float64, seed int64) *Catalog {
	rng := rand.New(rand.NewSource(seed))
	out := &Catalog{Box: c.Box, Galaxies: make([]Galaxy, len(c.Galaxies))}
	for i, g := range c.Galaxies {
		g.Pos.Z += rng.NormFloat64() * sigmaZ
		g.Pos = c.Box.Wrap(g.Pos)
		out.Galaxies[i] = g
	}
	return out
}

// poisson draws from a Poisson distribution with the given mean (Knuth's
// algorithm; means here are small).
func poisson(rng *rand.Rand, mean float64) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k // defensive: unreachable for sane means
		}
	}
}

// randDirection returns a uniformly distributed unit vector.
func randDirection(rng *rand.Rand) geom.Vec3 {
	for {
		v := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		if n := v.Norm(); n > 1e-12 {
			return v.Scale(1 / n)
		}
	}
}
