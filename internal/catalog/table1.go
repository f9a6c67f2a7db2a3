package catalog

import "math"

// Table1Row is one row of the paper's Table 1: the datasets used for the
// weak-scaling study and the full-system run, all cut at the Outer Rim
// number density of ~0.071 (Mpc/h)^-3.
type Table1Row struct {
	Nodes    int
	Galaxies int
	BoxL     float64 // cubic box side, Mpc/h
}

// Table1 returns the paper's Table 1 verbatim.
func Table1() []Table1Row {
	return []Table1Row{
		{128, 2.880e7, 734.5},
		{256, 5.760e7, 925.8},
		{512, 1.152e8, 1166.9},
		{1024, 2.304e8, 1470.9},
		{2048, 4.608e8, 1853.3},
		{4096, 9.216e8, 2334.7},
		{8192, 1.843e9, 2934.4},
		{9636, 1.951e9, 3000.0},
	}
}

// ScaledTable1Row returns a locally runnable analogue of a Table 1 row:
// the same node count and the same density, but with galaxiesPerNode
// galaxies per node instead of 225,000. The box side follows from density.
func ScaledTable1Row(nodes, galaxiesPerNode int) Table1Row {
	n := nodes * galaxiesPerNode
	l := math.Cbrt(float64(n) / OuterRimDensity)
	return Table1Row{Nodes: nodes, Galaxies: n, BoxL: l}
}

// BoxForDensity returns the cubic box side enclosing n galaxies at the
// Outer Rim density.
func BoxForDensity(n int) float64 {
	return math.Cbrt(float64(n) / OuterRimDensity)
}

// GenerateTable1Dataset generates a density-matched dataset for one
// (scaled) Table 1 row using the clustered halo-model generator, mirroring
// the paper's procedure of cutting density-matched cubes out of Outer Rim
// ("we constructed problem sets with the same number density as the full
// Outer Rim dataset", Sec. 5.2).
func GenerateTable1Dataset(row Table1Row, seed int64) *Catalog {
	return Clustered(row.Galaxies, row.BoxL, DefaultClusterParams(), seed)
}
