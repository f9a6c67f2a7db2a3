package partition

import (
	"fmt"
	"math"

	"galactos/internal/catalog"
	"galactos/internal/geom"
)

// HistBuckets is the cut histogram's length: every level of the cut tree
// shares one array of HistBuckets counts among the regions it cuts, so a
// region's cut lands on one of its HistBuckets/regions bucket edges and its
// two sides balance to the galaxies of one bucket.
const HistBuckets = 4096

// Plan is the k-d cut tree of Sec. 3.2 over one catalog. Parts are numbered
// in the order the planner finishes them, level by level and low side first:
// the same catalog and part count always give the same parts in the same
// order, which is what lets a resumed sharded run match its checkpoints to
// parts by index alone.
type Plan struct {
	// Boxes holds each part's owned subdomain (half-open).
	Boxes []geom.Box
	l     float64 // the source's periodic side (0: open boundaries)
	scale float64 // 2·max(|root corner|, L): the halo test's rounding scale
	nodes []node
}

// node is one region of the cut tree, [lo, hi) along axis. An inner node
// sends c < cut to nodes[left] and the rest to nodes[left+1]; a leaf
// (left == 0: the root is no node's child) is part number part, or while
// its level is being planned, histogram slot -1-part.
type node struct {
	axis        int
	lo, cut, hi float64
	left, part  int32
}

// Cut plans nparts parts of root with recursive proportional k-d cuts: a
// region to be cut into k parts is cut across its widest axis into groups of
// ceil(k/2) and floor(k/2) parts whose galaxy counts stand in that ratio —
// the paper's relaxation of the perfect binary tree (9636 nodes), so nparts
// need not be a power of two. The cuts come from one histogram pass per tree
// level: each call of pass must hand visit every galaxy of the catalog once.
// l is the source's periodic side (0: open), which the halo test wraps.
func Cut(root geom.Box, l float64, nparts int, pass func(visit func([]catalog.Galaxy)) error) (*Plan, error) {
	if nparts <= 0 || nparts > math.MaxInt32 {
		return nil, fmt.Errorf("partition: part count %d outside [1, %d]", nparts, math.MaxInt32)
	}
	p := &Plan{l: l, nodes: []node{{}}}
	for _, c := range []geom.Vec3{root.Min, root.Max} {
		p.scale = max(p.scale, 2*math.Abs(c.X), 2*math.Abs(c.Y), 2*math.Abs(c.Z))
	}
	p.scale = max(p.scale, 2*l)

	type region struct {
		box   geom.Box
		k     int
		node  int32
		width float64 // bucket width along the node's axis
	}
	var level, next []region
	// place queues a region of k > 1 parts for the next level, or finishes
	// it as the next part.
	place := func(box geom.Box, k int, i int32) {
		if k > 1 {
			next = append(next, region{box: box, k: k, node: i})
			return
		}
		p.nodes[i].part = int32(len(p.Boxes))
		p.Boxes = append(p.Boxes, box)
	}
	place(root, nparts, 0)
	// A level cuts at most nparts/2 regions, one bucket each past HistBuckets.
	hist := make([]int, max(HistBuckets, nparts))
	for len(next) > 0 {
		level, next = next, nil
		per := max(HistBuckets/len(level), 1)
		clear(hist)
		for s := range level {
			r := &level[s]
			n := &p.nodes[r.node]
			n.axis = r.box.WidestAxis()
			n.lo, n.hi = r.box.Min.Component(n.axis), r.box.Max.Component(n.axis)
			n.part = int32(-1 - s)
			r.width = (n.hi - n.lo) / float64(per)
		}
		err := pass(func(gals []catalog.Galaxy) {
			for _, g := range gals {
				c := [3]float64{g.Pos.X, g.Pos.Y, g.Pos.Z}
				n := &p.nodes[p.leaf(&c)]
				if s := int(-1 - n.part); s >= 0 { // not a finished part
					b := int((c[n.axis] - n.lo) / level[s].width)
					hist[s*per+min(max(b, 0), per-1)]++
				}
			}
		})
		if err != nil {
			return nil, err
		}
		for s, r := range level {
			h := hist[s*per:][:per]
			total := 0
			for _, c := range h {
				total += c
			}
			kl := (r.k + 1) / 2
			target := int(math.Round(float64(total) * float64(kl) / float64(r.k)))
			e, cum := 0, 0
			for cum < target {
				cum += h[e]
				e++
			}
			left := int32(len(p.nodes))
			n := &p.nodes[r.node]
			n.cut, n.left = n.hi, left
			if e < per {
				n.cut = min(n.lo+float64(float64(e)*r.width), n.hi)
			}
			lbox, rbox := r.box, r.box
			lbox.Max = lbox.Max.WithComponent(n.axis, n.cut)
			rbox.Min = rbox.Min.WithComponent(n.axis, n.cut)
			p.nodes = append(p.nodes, node{}, node{})
			place(lbox, kl, left)
			place(rbox, r.k-kl, left+1)
		}
	}
	return p, nil
}

// leaf returns the index of the leaf node holding pos, by cut comparisons
// alone.
func (p *Plan) leaf(c *[3]float64) int32 {
	i := int32(0)
	for n := &p.nodes[0]; n.left != 0; n = &p.nodes[i] {
		i = n.left
		if !(c[n.axis] < n.cut) {
			i++
		}
	}
	return i
}

// owner returns the part owning pos.
func (p *Plan) owner(pos geom.Vec3) int {
	return int(p.nodes[p.leaf(&[3]float64{pos.X, pos.Y, pos.Z})].part)
}

// Place returns pos's owner and appends to halo every other part whose box
// lies within rmax of pos — by periodic box distance on a periodic source.
// One descent of the cut tree finds the owner; at each cut it passes, the
// far side is walked only when it lies within reach. The reach is rmax
// widened by a rounding slack, (rmax + scale)·2⁻⁴⁰ with scale twice the
// largest coordinate or box side: thousands of float64 rounding units of
// any separation the engine compares against rmax, so a part misses no halo
// galaxy a primary of it pairs with, and a copy the slack lets in forms no
// pair.
func (p *Plan) Place(pos geom.Vec3, rmax float64, halo []int) (int, []int) {
	reach := rmax + float64((rmax+p.scale)*0x1p-40)
	c := [3]float64{pos.X, pos.Y, pos.Z}
	i := int32(0)
	for n := &p.nodes[0]; n.left != 0; n = &p.nodes[i] {
		// pos lies in this node's region, so the far side's distance is
		// its gap along the cut axis alone (less, for a pos past the
		// root, which only admits more halo).
		i = n.left
		far, a, b := i+1, n.cut, n.hi
		if !(c[n.axis] < n.cut) {
			i, far, a, b = far, i, n.lo, n.cut
		}
		if d := wrapGap(c[n.axis], a, b, p.l); d <= reach {
			if f := &p.nodes[far]; f.left == 0 {
				halo = append(halo, int(f.part))
			} else {
				var g [3]float64
				g[n.axis] = d
				halo = p.near(f, &c, g, reach*reach, halo)
			}
		}
	}
	return int(p.nodes[i].part), halo
}

// near appends to halo the parts under inner node n whose regions lie
// within √r2 of c, in tree order; gap is c's per-axis distance to n's
// region. Leaf children are appended here, so near only recurses into
// inner ones.
func (p *Plan) near(n *node, c *[3]float64, gap [3]float64, r2 float64, halo []int) []int {
	ax := n.axis
	for side, a, b := int32(0), n.lo, n.cut; side < 2; side, a, b = side+1, n.cut, n.hi {
		gap[ax] = wrapGap(c[ax], a, b, p.l)
		if float64(gap[0]*gap[0])+float64(gap[1]*gap[1])+float64(gap[2]*gap[2]) <= r2 {
			if ch := &p.nodes[n.left+side]; ch.left == 0 {
				halo = append(halo, int(ch.part))
			} else {
				halo = p.near(ch, c, gap, r2, halo)
			}
		}
	}
	return halo
}

// wrapGap returns the distance from coordinate c to the interval [a, b],
// a <= b, under the periodic wrap of side l when l > 0: the value
// min(max(a-c, c-b, 0), max(a-(c-l), c-l-b, 0), max(a-(c+l), c+l-b, 0))
// for finite operands (catalog.Extent refuses anything else). Below the
// interval, the image c-l lies farther below it than c (rounding is
// monotone), so only c+l can be nearer than c; above it, only c-l; inside,
// the gap is 0. That is two gaps where the three-way max and min took
// three, and the body stays within the inliner's budget: Place and near
// make no call for it.
func wrapGap(c, a, b, l float64) float64 {
	d := gap(c, a, b)
	if d > 0 && l > 0 {
		if c > b {
			l = -l
		}
		d = min(d, gap(c+l, a, b))
	}
	return d
}

// gap returns the distance from c to [a, b], a <= b: max(a-c, c-b, 0).
func gap(c, a, b float64) float64 {
	if c < a {
		return a - c
	}
	if c > b {
		return c - b
	}
	return 0
}
