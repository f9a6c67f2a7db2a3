// The gridded-data generalization of Sec. 6.3, which the gridded-vs-exact
// scenario runs: "The core algorithm can be applied to any point set and can
// also be generalized to gridded data, enabling further acceleration."
// Galaxies (or any density field, e.g. ISM dust maps) are deposited onto a
// cubic mesh; occupied cells become weighted tracers at their centers, and
// the standard multipole engine runs over the (much smaller) cell catalog.
// Accuracy is controlled by the mesh resolution relative to the radial bin
// width: the paper's binning (~10 Mpc/h) tolerates a few-Mpc mesh.

package scenario

import (
	"fmt"
	"math"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
)

// mesh is a cubic density mesh over a periodic box.
type mesh struct {
	n    int     // cells per side
	l    float64 // box side
	w    []float64
	cell float64
}

// newMesh deposits a periodic catalog onto an n^3 mesh, each galaxy's
// weight onto the one cell that holds it (nearest grid point).
func newMesh(cat *catalog.Catalog, n int) (*mesh, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gridded: mesh size %d must be positive", n)
	}
	if cat.Box.L <= 0 {
		return nil, fmt.Errorf("gridded: mesh deposition requires a periodic box")
	}
	m := &mesh{n: n, l: cat.Box.L, w: make([]float64, n*n*n), cell: cat.Box.L / float64(n)}
	for _, g := range cat.Galaxies {
		m.depositNGP(g.Pos, g.Weight)
	}
	return m, nil
}

func (m *mesh) idx(i, j, k int) int {
	return (wrapCell(i, m.n)*m.n+wrapCell(j, m.n))*m.n + wrapCell(k, m.n)
}

func wrapCell(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

func (m *mesh) depositNGP(p geom.Vec3, w float64) {
	i := int(math.Floor(p.X / m.cell))
	j := int(math.Floor(p.Y / m.cell))
	k := int(math.Floor(p.Z / m.cell))
	m.w[m.idx(i, j, k)] += w
}

// tracers converts the mesh to a tracer catalog: one weighted galaxy per
// occupied cell, at the cell center. This is the input to the standard
// multipole engine.
func (m *mesh) tracers() *catalog.Catalog {
	out := &catalog.Catalog{Box: geom.Periodic{L: m.l}}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			for k := 0; k < m.n; k++ {
				w := m.w[(i*m.n+j)*m.n+k]
				if w == 0 {
					continue
				}
				out.Galaxies = append(out.Galaxies, catalog.Galaxy{
					Pos: geom.Vec3{
						X: (float64(i) + 0.5) * m.cell,
						Y: (float64(j) + 0.5) * m.cell,
						Z: (float64(k) + 0.5) * m.cell,
					},
					Weight: w,
				})
			}
		}
	}
	return out
}

// griddedCompute deposits cat onto an n^3 mesh and runs the 3PCF over the cell
// catalog. The returned result's tracer count is the number of occupied
// cells; pair counts (and hence cost) drop by roughly the mean cell
// occupancy squared.
func griddedCompute(cat *catalog.Catalog, meshN int, cfg core.Config) (*core.Result, *mesh, error) {
	m, err := newMesh(cat, meshN)
	if err != nil {
		return nil, nil, err
	}
	if m.cell > (cfg.RMax-cfg.RMin)/float64(cfg.NBins) {
		return nil, nil, fmt.Errorf(
			"gridded: cell %.2f exceeds the radial bin width %.2f; refine the mesh",
			m.cell, (cfg.RMax-cfg.RMin)/float64(cfg.NBins))
	}
	res, err := core.Compute(m.tracers(), cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, m, nil
}
