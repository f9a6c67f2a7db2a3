// Package grid implements a cell-grid neighbor finder: the "simple gridding
// scheme to accelerate the finding of all secondaries within Rmax of a given
// primary" used by the Slepian–Eisenstein 2015 implementation the paper
// compares against (Sec. 2.3). It wraps periodic boxes natively; the 2PCF
// counter (internal/twopcf) searches with it. The 3PCF engine does not: it
// has one neighbour index, the float32 k-d tree.
package grid

import (
	"math"

	"galactos/internal/geom"
	"galactos/internal/nbr"
)

// Grid is an immutable cell-list index over a fixed point set. Queries are
// safe for concurrent use.
type Grid struct {
	origin geom.Vec3
	cell   float64 // cell side length
	nx,
	ny, nz int
	periodic geom.Periodic
	// CSR layout: cellStart[c]..cellStart[c+1] indexes into ids.
	cellStart []int32
	ids       []int32
	pts       []geom.Vec3
}

// Build constructs a grid over pts with cells of side >= cellSize. If
// periodic.L > 0 the grid covers exactly the periodic box [0,L)^3 and
// queries wrap; points must already lie inside the box. With open
// boundaries the grid covers the bounding box of the points.
func Build(pts []geom.Vec3, cellSize float64, periodic geom.Periodic) *Grid {
	g := &Grid{periodic: periodic, pts: pts}
	if len(pts) == 0 {
		g.nx, g.ny, g.nz = 1, 1, 1
		g.cell = math.Max(cellSize, 1)
		g.cellStart = make([]int32, 2)
		return g
	}
	var lo, hi geom.Vec3
	if periodic.L > 0 {
		lo = geom.Vec3{}
		hi = geom.Vec3{X: periodic.L, Y: periodic.L, Z: periodic.L}
	} else {
		lo, hi = pts[0], pts[0]
		for _, p := range pts[1:] {
			lo.X = math.Min(lo.X, p.X)
			lo.Y = math.Min(lo.Y, p.Y)
			lo.Z = math.Min(lo.Z, p.Z)
			hi.X = math.Max(hi.X, p.X)
			hi.Y = math.Max(hi.Y, p.Y)
			hi.Z = math.Max(hi.Z, p.Z)
		}
	}
	g.origin = lo
	ext := hi.Sub(lo)
	dims := func(e float64) int {
		n := int(e / cellSize)
		if n < 1 {
			n = 1
		}
		return n
	}
	g.nx, g.ny, g.nz = dims(ext.X), dims(ext.Y), dims(ext.Z)
	if periodic.L > 0 {
		// Periodic wrapping requires the box to tile exactly.
		g.cell = periodic.L / float64(g.nx)
		g.ny, g.nz = g.nx, g.nx
	} else {
		g.cell = math.Max(ext.X/float64(g.nx), math.Max(ext.Y/float64(g.ny), ext.Z/float64(g.nz)))
		if g.cell <= 0 {
			g.cell = math.Max(cellSize, 1)
		}
	}

	ncells := g.nx * g.ny * g.nz
	counts := make([]int32, ncells+1)
	cellOf := make([]int32, len(pts))
	for i, p := range pts {
		c := g.cellIndex(p)
		cellOf[i] = c
		counts[c+1]++
	}
	for c := 0; c < ncells; c++ {
		counts[c+1] += counts[c]
	}
	g.cellStart = counts
	g.ids = make([]int32, len(pts))
	fill := make([]int32, ncells)
	for i := range pts {
		c := cellOf[i]
		g.ids[g.cellStart[c]+fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

func (g *Grid) cellIndex(p geom.Vec3) int32 {
	ix := g.clampDim(int(math.Floor((p.X-g.origin.X)/g.cell)), g.nx)
	iy := g.clampDim(int(math.Floor((p.Y-g.origin.Y)/g.cell)), g.ny)
	iz := g.clampDim(int(math.Floor((p.Z-g.origin.Z)/g.cell)), g.nz)
	return int32((ix*g.ny+iy)*g.nz + iz)
}

func (g *Grid) clampDim(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// QueryRadius appends to out the indices of all points within distance r of
// center (inclusive, minimal-image distance if periodic) and returns the
// extended slice.
func (g *Grid) QueryRadius(center geom.Vec3, r float64, out []int32) []int32 {
	if len(g.pts) == 0 {
		return out
	}
	reach := int(math.Ceil(r/g.cell)) + 1
	cx := int(math.Floor((center.X - g.origin.X) / g.cell))
	cy := int(math.Floor((center.Y - g.origin.Y) / g.cell))
	cz := int(math.Floor((center.Z - g.origin.Z) / g.cell))
	r2 := r * r

	xs := g.axisCells(cx, reach, g.nx)
	ys := g.axisCells(cy, reach, g.ny)
	zs := g.axisCells(cz, reach, g.nz)
	for _, ix := range xs {
		for _, iy := range ys {
			for _, iz := range zs {
				c := (ix*g.ny+iy)*g.nz + iz
				for _, id := range g.ids[g.cellStart[c]:g.cellStart[c+1]] {
					sep := g.periodic.Separation(center, g.pts[id])
					if sep.Norm2() <= r2 {
						out = append(out, id)
					}
				}
			}
		}
	}
	return out
}

// QueryRadiusImages is the fused multi-image form of QueryRadius shared
// with the k-d trees (core.NeighborFinder). The grid's cell lists wrap
// periodic boundaries natively, so a caller hands it a single zero offset
// and the whole neighborhood comes from one cell-list sweep; explicit
// offsets (open-boundary tilings) fall back to one sweep per image.
func (g *Grid) QueryRadiusImages(center geom.Vec3, r float64, images []geom.Vec3, out []int32) []int32 {
	for _, off := range images {
		out = g.QueryRadius(center.Add(off), r, out)
	}
	return out
}

// QueryRadiusImagesBlock is the block-granular form of QueryRadiusImages
// (core.NeighborFinder): one call answers a whole block of centers, each
// center's id run bitwise-identical in content and order to its individual
// query. The grid's CSR cell lists are already a shared structure — nearby
// centers sweep overlapping cell windows, so the block's point and cell
// data stay cache-resident across the per-center sweeps; the sweep itself
// stays per center because each center's wrap-ordered cell window defines
// its query order.
func (g *Grid) QueryRadiusImagesBlock(centers []geom.Vec3, r float64, images []geom.Vec3, blk *nbr.Block) {
	blk.Reset(len(centers))
	for _, c := range centers {
		for _, off := range images {
			blk.IDs = g.QueryRadius(c.Add(off), r, blk.IDs)
		}
		blk.Seal()
	}
}

// axisCells returns the distinct cell indices along one axis covered by a
// window of +/- reach around c, wrapping when periodic and never visiting a
// cell twice (the window saturates to the full axis when it would wrap onto
// itself).
func (g *Grid) axisCells(c, reach, n int) []int {
	if g.periodic.L > 0 && 2*reach+1 >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	cells := make([]int, 0, 2*reach+1)
	for d := -reach; d <= reach; d++ {
		i := c + d
		if g.periodic.L > 0 {
			i = mod(i, n)
		} else if i < 0 || i >= n {
			continue
		}
		cells = append(cells, i)
	}
	return cells
}

func mod(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// CountRadius returns the number of points within r of center.
func (g *Grid) CountRadius(center geom.Vec3, r float64) int {
	return len(g.QueryRadius(center, r, make([]int32, 0, 64)))
}

// CellCount returns the number of grid cells (instrumentation).
func (g *Grid) CellCount() int { return g.nx * g.ny * g.nz }
