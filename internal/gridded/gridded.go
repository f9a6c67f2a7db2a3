// Package gridded implements the gridded-data generalization of Sec. 6.3:
// "The core algorithm can be applied to any point set and can also be
// generalized to gridded data, enabling further acceleration." Galaxies (or
// any density field, e.g. ISM dust maps) are deposited onto a cubic mesh;
// occupied cells become weighted tracers at their centers, and the standard
// multipole engine runs over the (much smaller) cell catalog. Accuracy is
// controlled by the mesh resolution relative to the radial bin width: the
// paper's binning (~10 Mpc/h) tolerates a few-Mpc mesh.
package gridded

import (
	"fmt"
	"math"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
)

// Mesh is a cubic density mesh over a periodic box.
type Mesh struct {
	N    int     // cells per side
	L    float64 // box side
	W    []float64
	Cell float64
}

// NewMesh deposits a periodic catalog onto an n^3 mesh, each galaxy's
// weight onto the one cell that holds it (nearest grid point).
func NewMesh(cat *catalog.Catalog, n int) (*Mesh, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gridded: mesh size %d must be positive", n)
	}
	if cat.Box.L <= 0 {
		return nil, fmt.Errorf("gridded: mesh deposition requires a periodic box")
	}
	m := &Mesh{N: n, L: cat.Box.L, W: make([]float64, n*n*n), Cell: cat.Box.L / float64(n)}
	for _, g := range cat.Galaxies {
		m.depositNGP(g.Pos, g.Weight)
	}
	return m, nil
}

func (m *Mesh) idx(i, j, k int) int {
	return (wrap(i, m.N)*m.N+wrap(j, m.N))*m.N + wrap(k, m.N)
}

func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

func (m *Mesh) depositNGP(p geom.Vec3, w float64) {
	i := int(math.Floor(p.X / m.Cell))
	j := int(math.Floor(p.Y / m.Cell))
	k := int(math.Floor(p.Z / m.Cell))
	m.W[m.idx(i, j, k)] += w
}

// TotalWeight returns the deposited mass (the catalog's total weight).
func (m *Mesh) TotalWeight() float64 {
	s := 0.0
	for _, w := range m.W {
		s += w
	}
	return s
}

// OccupiedCells counts cells with nonzero weight.
func (m *Mesh) OccupiedCells() int {
	n := 0
	for _, w := range m.W {
		if w != 0 {
			n++
		}
	}
	return n
}

// Catalog converts the mesh to a tracer catalog: one weighted galaxy per
// occupied cell, at the cell center. This is the input to the standard
// multipole engine.
func (m *Mesh) Catalog() *catalog.Catalog {
	out := &catalog.Catalog{Box: geom.Periodic{L: m.L}}
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			for k := 0; k < m.N; k++ {
				w := m.W[(i*m.N+j)*m.N+k]
				if w == 0 {
					continue
				}
				out.Galaxies = append(out.Galaxies, catalog.Galaxy{
					Pos: geom.Vec3{
						X: (float64(i) + 0.5) * m.Cell,
						Y: (float64(j) + 0.5) * m.Cell,
						Z: (float64(k) + 0.5) * m.Cell,
					},
					Weight: w,
				})
			}
		}
	}
	return out
}

// Compute deposits cat onto an n^3 mesh and runs the 3PCF over the cell
// catalog. The returned result's tracer count is the number of occupied
// cells; pair counts (and hence cost) drop by roughly the mean cell
// occupancy squared.
func Compute(cat *catalog.Catalog, meshN int, cfg core.Config) (*core.Result, *Mesh, error) {
	m, err := NewMesh(cat, meshN)
	if err != nil {
		return nil, nil, err
	}
	if m.Cell > (cfg.RMax-cfg.RMin)/float64(cfg.NBins) {
		return nil, nil, fmt.Errorf(
			"gridded: cell %.2f exceeds the radial bin width %.2f; refine the mesh",
			m.Cell, (cfg.RMax-cfg.RMin)/float64(cfg.NBins))
	}
	res, err := core.Compute(m.Catalog(), cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, m, nil
}
