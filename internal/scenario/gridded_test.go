package scenario

import (
	"math"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
)

// totalWeight returns the deposited mass (the catalog's total weight).
func (m *mesh) totalWeight() float64 {
	s := 0.0
	for _, w := range m.w {
		s += w
	}
	return s
}

// occupiedCells counts cells with nonzero weight.
func (m *mesh) occupiedCells() int {
	n := 0
	for _, w := range m.w {
		if w != 0 {
			n++
		}
	}
	return n
}

func griddedConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.RMax = 30
	cfg.NBins = 6 // bin width 5
	cfg.LMax = 3
	cfg.Workers = 2
	return cfg
}

func TestMassConservation(t *testing.T) {
	cat := catalog.Clustered(2000, 100, catalog.DefaultClusterParams(), 1)
	for i := range cat.Galaxies {
		if i%3 == 0 {
			cat.Galaxies[i].Weight = -0.5
		}
	}
	want := cat.TotalWeight()
	m, err := newMesh(cat, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.totalWeight(); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("total weight %v, want %v", got, want)
	}
}

func TestNGPExactAtCellCenters(t *testing.T) {
	// Particles placed exactly at cell centers: the mesh catalog equals the
	// particle catalog (with merged duplicates), so the 3PCF is identical.
	const n = 20
	const l = 100.0
	cell := l / n
	cat := &catalog.Catalog{Box: geom.Periodic{L: l}}
	// A deterministic subset of cell centers.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if (i*7+j*3+k)%5 != 0 {
					continue
				}
				cat.Galaxies = append(cat.Galaxies, catalog.Galaxy{
					Pos:    geom.Vec3{X: (float64(i) + 0.5) * cell, Y: (float64(j) + 0.5) * cell, Z: (float64(k) + 0.5) * cell},
					Weight: 1,
				})
			}
		}
	}
	cfg := griddedConfig()
	direct, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gridRes, m, err := griddedCompute(cat, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.occupiedCells() != cat.Len() {
		t.Fatalf("occupied %d cells, want %d", m.occupiedCells(), cat.Len())
	}
	if d := gridRes.MaxAbsDiff(direct); d > 1e-9*direct.MaxAbs() {
		t.Errorf("gridded differs from direct by %v at exact cell centers", d)
	}
}

func TestGriddedApproximatesParticles(t *testing.T) {
	// At fine resolution the gridded monopole must approach the particle
	// computation, and the error must shrink as the mesh refines.
	cat := catalog.Clustered(3000, 120, catalog.DefaultClusterParams(), 3)
	cfg := griddedConfig()
	cfg.SelfCount = false // cell merging changes self-pairs; compare raw moments
	direct, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	relErr := func(meshN int) float64 {
		res, _, err := griddedCompute(cat, meshN, cfg)
		if err != nil {
			t.Fatal(err)
		}
		num, den := 0.0, 0.0
		for b1 := 2; b1 < cfg.NBins; b1++ { // skip sub-cell bins
			for b2 := 2; b2 < cfg.NBins; b2++ {
				d := res.IsoZeta(0, b1, b2) - direct.IsoZeta(0, b1, b2)
				num += d * d
				den += direct.IsoZeta(0, b1, b2) * direct.IsoZeta(0, b1, b2)
			}
		}
		return math.Sqrt(num / den)
	}
	coarse := relErr(30) // 4 Mpc/h cells
	fine := relErr(60)   // 2 Mpc/h cells
	if fine > coarse {
		t.Errorf("error grew with resolution: coarse %v, fine %v", coarse, fine)
	}
	if fine > 0.08 {
		t.Errorf("fine-mesh relative error %v too large", fine)
	}
}

func TestGriddedAccelerates(t *testing.T) {
	// The whole point of Sec. 6.3's extension: far fewer pairs.
	cat := catalog.Uniform(20000, 100, 5)
	cfg := griddedConfig()
	cfg.SelfCount = false
	direct, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, m, err := griddedCompute(cat, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.occupiedCells() >= cat.Len() {
		t.Skip("catalog too sparse for cell merging at this size")
	}
	if res.Pairs >= direct.Pairs {
		t.Errorf("gridded pairs %d not fewer than particle pairs %d", res.Pairs, direct.Pairs)
	}
}

func TestMeshValidation(t *testing.T) {
	cat := catalog.Uniform(10, 50, 1)
	if _, err := newMesh(cat, 0); err == nil {
		t.Error("zero mesh accepted")
	}
	open := &catalog.Catalog{}
	if _, err := newMesh(open, 10); err == nil {
		t.Error("open-boundary catalog accepted")
	}
	cfg := griddedConfig()
	if _, _, err := griddedCompute(cat, 4, cfg); err == nil {
		t.Error("cell coarser than bin width accepted")
	}
}

func TestPeriodicDeposition(t *testing.T) {
	// Galaxies at the box edge wrap into valid cells.
	cat := &catalog.Catalog{Box: geom.Periodic{L: 10}, Galaxies: []catalog.Galaxy{
		{Pos: geom.Vec3{X: 9.99, Y: 0.01, Z: 5}, Weight: 1},
	}}
	m, err := newMesh(cat, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.totalWeight()-1) > 1e-12 {
		t.Errorf("edge galaxy lost mass: %v", m.totalWeight())
	}
}
