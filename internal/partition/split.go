// Package partition implements the spatial decomposition of Sec. 3.2: a
// recursive k-d partitioning that splits the part count into two groups of
// nearly equal (not necessarily power-of-two) sizes and divides galaxies in
// proportion to the group sizes, followed by a halo selection that copies
// every galaxy within Rmax of a part's subdomain boundary into that part —
// eliminating all communication during the 3PCF evaluation itself.
//
// Cut is the one planner: it places the cuts from one histogram pass per
// tree level over any catalog the caller can stream, and Plan.Place finds a
// galaxy's owner and halo parts by one walk of the cut tree, under the
// periodic box distance (halo copies keep their coordinates; the engine's
// images cover the wrap). Halo is the image-baked form over an in-memory
// Split: each copy carries its image shift, so the part computes in open
// boundaries.
package partition

import (
	"fmt"
	"math"

	"galactos/internal/catalog"
	"galactos/internal/geom"
)

// Part is one spatially-local piece of a k-d split: the owned subdomain box
// and the indices of the galaxies inside it. Parts are the simulated ranks
// of cmd/galactos-bench's scaling experiments, the jackknife regions of
// package scenario, cut by the planner the shard backend uses. A Part holds
// 4-byte indices into the source catalog and carries no halo — halo copies
// are materialized per part, on demand, by Halo — so the split itself adds
// only len(catalog) indices of memory no matter how many parts there are.
type Part struct {
	// Box is the part's owned subdomain (half-open).
	Box geom.Box
	// Index lists the owned galaxies as indices into the source catalog, in
	// ascending order. The slice aliases an internal array shared by all
	// parts of one Split call; callers must not mutate it.
	Index []int32
}

// Split cuts an in-memory catalog into nparts parts with Cut, the planner
// the shard backend streams its catalogs through, so both give the same
// boxes and owned counts for the same catalog.
func Split(cat *catalog.Catalog, nparts int) ([]Part, error) {
	if cat == nil {
		return nil, fmt.Errorf("partition: nil catalog")
	}
	if cat.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("partition: catalog of %d galaxies exceeds the int32 index space", cat.Len())
	}
	ext := catalog.NewExtent()
	if err := ext.Add(cat.Galaxies); err != nil {
		return nil, err
	}
	plan, err := Cut(ext.Root(cat.Box.L), cat.Box.L, nparts, func(visit func([]catalog.Galaxy)) error {
		visit(cat.Galaxies)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One index array backs every part: a counting pass sizes each part's
	// subslice, a second fills it in catalog order.
	start := make([]int, nparts+1)
	for _, g := range cat.Galaxies {
		start[plan.owner(g.Pos)+1]++
	}
	for i := range nparts {
		start[i+1] += start[i]
	}
	idx := make([]int32, cat.Len())
	parts := make([]Part, nparts)
	for i := range parts {
		parts[i] = Part{Box: plan.Boxes[i], Index: idx[start[i]:start[i]:start[i+1]]}
	}
	for gi, g := range cat.Galaxies {
		p := &parts[plan.owner(g.Pos)]
		p.Index = append(p.Index, int32(gi))
	}
	return parts, nil
}

// Halo returns the halo copies for parts[i] under cutoff rmax: every galaxy
// owned by another part — or any galaxy under a nonzero periodic image,
// including parts[i]'s own (the periodic self-halo) — whose image lies
// within rmax of parts[i].Box. Image shifts are baked into the returned
// coordinates, so the part computes in open boundaries.
func Halo(cat *catalog.Catalog, parts []Part, i int, rmax float64) []catalog.Galaxy {
	images := cat.Box.Images(rmax)
	var halo []catalog.Galaxy
	for j := range parts {
		for _, off := range images {
			if i == j && off == (geom.Vec3{}) {
				continue
			}
			// Box-level prune: if part j's entire shifted box is beyond
			// rmax of part i's box, no galaxy inside can contribute —
			// this is what keeps total halo cost near-linear in N when
			// shards are local.
			shifted := geom.Box{Min: parts[j].Box.Min.Add(off), Max: parts[j].Box.Max.Add(off)}
			if boxBoxDist(shifted, parts[i].Box) > rmax {
				continue
			}
			for _, gi := range parts[j].Index {
				g := cat.Galaxies[gi]
				p := g.Pos.Add(off)
				if pointBoxDist(p, parts[i].Box) <= rmax {
					halo = append(halo, catalog.Galaxy{Pos: p, Weight: g.Weight})
				}
			}
		}
	}
	return halo
}

// pointBoxDist returns the Euclidean distance from p to box (0 inside).
func pointBoxDist(p geom.Vec3, b geom.Box) float64 {
	d2 := 0.0
	for axis := range 3 {
		g := wrapGap(p.Component(axis), b.Min.Component(axis), b.Max.Component(axis), 0)
		d2 += g * g
	}
	return math.Sqrt(d2)
}

// boxBoxDist returns the Euclidean distance between two axis-aligned boxes
// (0 if they overlap).
func boxBoxDist(a, b geom.Box) float64 {
	d2 := 0.0
	for axis := 0; axis < 3; axis++ {
		gap := 0.0
		if g := b.Min.Component(axis) - a.Max.Component(axis); g > 0 {
			gap = g
		} else if g := a.Min.Component(axis) - b.Max.Component(axis); g > 0 {
			gap = g
		}
		d2 += gap * gap
	}
	return math.Sqrt(d2)
}
