// Package partition implements the spatial decomposition of Sec. 3.2: a
// recursive k-d partitioning that splits the part count into two groups of
// nearly equal (not necessarily power-of-two) sizes and divides galaxies in
// proportion to the group sizes, followed by a halo selection that copies
// every galaxy within Rmax of a part's subdomain boundary into that part —
// eliminating all communication during the 3PCF evaluation itself.
//
// One deliberate mechanical substitution (documented in DESIGN.md): halo
// galaxies are selected per target box directly, instead of replaying the
// tree branch by branch. The paper itself notes the irregular partitioning
// "prevents a priori computation of a process's neighbor list"; the
// box-based selection produces exactly the halo set the tree replay
// produces, including periodic images (halo copies carry image-shifted
// coordinates so each part computes in open boundaries).
package partition

import (
	"fmt"
	"math"
	"sort"

	"galactos/internal/catalog"
	"galactos/internal/geom"
)

// Part is one spatially-local piece of a k-d split: the owned subdomain box
// and the indices of the galaxies inside it. Parts are the simulated ranks
// of cmd/galactos-bench's scaling experiments and the jackknife regions of
// package scenario (the shard backend cuts slabs instead). A Part holds
// 4-byte indices into the source catalog and carries no halo — halo copies
// are materialized per part, on demand, by Halo — so the split itself adds
// only len(catalog) indices of memory no matter how many parts there are.
type Part struct {
	// Box is the part's owned subdomain (half-open).
	Box geom.Box
	// Index lists the owned galaxies as indices into the source catalog.
	// The slice aliases an internal array shared by all parts of one Split
	// call; callers must not mutate it.
	Index []int32
}

// Split cuts cat into nparts spatially-local parts with recursive
// proportional k-d cuts: at each level the widest axis of the region is cut
// so the two sides hold galaxy counts proportional to ceil(k/2) and
// floor(k/2) — the paper's relaxation of the perfect-binary-tree constraint
// (9636 nodes), so nparts need not be a power of two. The split is
// deterministic: the same catalog and nparts always produce the same parts
// in the same (depth-first, low-coordinate-first) order, which is what lets
// a resumed sharded run match its checkpoints to shards by index alone.
func Split(cat *catalog.Catalog, nparts int) ([]Part, error) {
	if cat == nil {
		return nil, fmt.Errorf("partition: nil catalog")
	}
	if nparts <= 0 {
		return nil, fmt.Errorf("partition: part count %d must be positive", nparts)
	}
	if cat.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("partition: catalog of %d galaxies exceeds the int32 index space", cat.Len())
	}
	root := cat.Bounds()
	if cat.Box.L > 0 {
		root = geom.Box{Min: geom.Vec3{}, Max: geom.Vec3{X: cat.Box.L, Y: cat.Box.L, Z: cat.Box.L}}
	}
	// One index array backs every part: the recursion sorts subranges in
	// place and parts are subslices.
	idx := make([]int32, cat.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	parts := make([]Part, 0, nparts)
	var rec func(idx []int32, region geom.Box, k int)
	rec = func(idx []int32, region geom.Box, k int) {
		if k == 1 {
			parts = append(parts, Part{Box: region, Index: idx})
			return
		}
		szL := (k + 1) / 2
		axis := region.WidestAxis()
		nLeft := int(math.Round(float64(len(idx)) * float64(szL) / float64(k)))
		if nLeft > len(idx) {
			nLeft = len(idx)
		}
		cut := selectCut(cat, idx, axis, nLeft, region)
		left, right := region, region
		left.Max = left.Max.WithComponent(axis, cut)
		right.Min = right.Min.WithComponent(axis, cut)
		rec(idx[:nLeft], left, szL)
		rec(idx[nLeft:], right, k-szL)
	}
	rec(idx, root, nparts)
	return parts, nil
}

// selectCut orders idx[0:n) below idx[n:) along axis (in place, by the
// referenced galaxy coordinates) and returns the cut coordinate. Sorting
// keeps the implementation simple and deterministic; setup cost is dwarfed
// by the O(N^2) main computation.
func selectCut(cat *catalog.Catalog, idx []int32, axis, n int, region geom.Box) float64 {
	coord := func(i int32) float64 { return cat.Galaxies[i].Pos.Component(axis) }
	sort.Slice(idx, func(a, b int) bool { return coord(idx[a]) < coord(idx[b]) })
	switch {
	case len(idx) == 0:
		return (region.Min.Component(axis) + region.Max.Component(axis)) / 2
	case n <= 0:
		return region.Min.Component(axis)
	case n >= len(idx):
		return region.Max.Component(axis)
	default:
		// Midpoint between the last kept and first shipped galaxy keeps the
		// cut strictly separating.
		return (coord(idx[n-1]) + coord(idx[n])) / 2
	}
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

// Materialize builds parts[i]'s node-local problem under cutoff rmax: an
// open-boundary catalog holding the owned galaxies followed by the halo
// copies, and the primary mask marking the owned ones (halo copies are
// secondaries only, per Sec. 3.3).
func Materialize(cat *catalog.Catalog, parts []Part, i int, rmax float64) (*catalog.Catalog, []bool) {
	owned := parts[i].Index
	halo := Halo(cat, parts, i, rmax)
	local := &catalog.Catalog{ // open boundaries: periodic images are baked in
		Galaxies: make([]catalog.Galaxy, 0, len(owned)+len(halo)),
	}
	for _, gi := range owned {
		local.Galaxies = append(local.Galaxies, cat.Galaxies[gi])
	}
	local.Galaxies = append(local.Galaxies, halo...)
	primary := make([]bool, local.Len())
	for j := range owned {
		primary[j] = true
	}
	return local, primary
}

// pointBoxDist returns the Euclidean distance from p to box (0 inside).
func pointBoxDist(p geom.Vec3, b geom.Box) float64 {
	d2 := 0.0
	for axis := 0; axis < 3; axis++ {
		c := p.Component(axis)
		lo := b.Min.Component(axis)
		hi := b.Max.Component(axis)
		if c < lo {
			d2 += (lo - c) * (lo - c)
		} else if c > hi {
			d2 += (c - hi) * (c - hi)
		}
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
