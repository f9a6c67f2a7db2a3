// Package kdtree implements the node-local spatial k-d tree Galactos uses to
// gather the candidate secondaries of each primary (Algorithm 1). The paper
// runs the tree search in single precision "due to its insensitivity to the
// precision of galaxy locations" (Sec. 5.1) while the kernel stays in
// double, and so does the engine: it queries a Tree[float32] at RMax
// widened by the float32 rounding bound, and its float64 pair pass decides
// which candidates are pairs. The distance tests run in the storage
// precision T; Tree[float64] remains for tools and tests that want exact
// float64 membership (its tests have no AVX-512 body).
package kdtree

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"galactos/internal/geom"
	"galactos/internal/lanes"
)

// Float constrains the coordinate storage precision.
type Float interface {
	~float32 | ~float64
}

type point[T Float] struct {
	c  [3]T // x, y, z: the split axis indexes it
	id int32
}

// chunk holds 16 tree-order points as columns, the shape leafHits16 tests at
// once. A leaf owns whole chunks; the lanes past its last point carry +Inf
// coordinates, which are within no radius.
type chunk[T Float] struct {
	x, y, z [16]T
	id      [16]int32
}

type node[T Float] struct {
	// Bounding box of all points under this node ("marked" k-d tree info,
	// Sec. 2.1): enables exact pruning in radius queries.
	minX, minY, minZ T
	maxX, maxY, maxZ T
	left, right      int32 // children; -1 for leaf
	// Point range: indices into pts while building, into the padded chunk
	// lanes (point i is lane i&15 of chunk i>>4) once packed, so a leaf's
	// start is a multiple of 16.
	start, end int32
}

// Tree is an immutable spatial index over a fixed point set. Queries are
// safe for concurrent use; building is parallel across subtrees.
type Tree[T Float] struct {
	pts      []point[T] // build-time only; pack moves the points into chunks
	chunks   []chunk[T]
	nodes    []node[T]
	leafSize int
	n        int

	// The two 16-lane tests of the block query, bound at Build to the
	// process's lane-dispatch decision: the AVX-512 bodies on a float32 tree
	// when lanes.Vector(), the portable boxMask16 / leafHits16 otherwise.
	// The bodies return identical values, so which one runs never shows in a
	// result.
	boxMask  func(b *boxes16[T], cx, cy, cz, r2 T) uint16
	leafHits func(c *chunk[T], cx, cy, cz, r2 T, out *[16]int32) int
}

// DefaultLeafSize balances tree depth against leaf scan cost.
const DefaultLeafSize = 16

// Build constructs a k-d tree over pts. leafSize <= 0 selects
// DefaultLeafSize. The input slice is not modified.
func Build[T Float](pts []geom.Vec3, leafSize int) *Tree[T] {
	if leafSize <= 0 {
		leafSize = DefaultLeafSize
	}
	t := &Tree[T]{
		pts:      make([]point[T], len(pts)),
		leafSize: leafSize,
		n:        len(pts),
		boxMask:  boxMask16[T],
		leafHits: leafHits16[T],
	}
	if lanes.Vector() {
		bindLanes(t)
	}
	for i, p := range pts {
		t.pts[i] = point[T]{[3]T{T(p.X), T(p.Y), T(p.Z)}, int32(i)}
	}
	if len(pts) == 0 {
		return t
	}
	t.nodes = make([]node[T], nodeCount(len(pts), leafSize))
	var wg sync.WaitGroup
	t.build(0, 0, int32(len(t.pts)), parallelDepth(), &wg)
	wg.Wait()
	t.pack()
	return t
}

// nodeCount returns the node count of a tree over n > 0 points: a range of
// m points is a leaf when m <= leafSize, else a node over [0, m/2) and
// [m/2, m). Build lays the nodes out in pre-order from it, so the subtrees
// own disjoint, precomputed index ranges.
func nodeCount(n, leafSize int) int {
	c, _ := nodeCounts(n, leafSize)
	return c
}

// nodeCounts returns the node counts over m and m+1 points (m >= 1). Both
// halve into ranges of m/2 and m/2+1 points, so one pair per level carries
// the count down in O(log m).
func nodeCounts(m, leafSize int) (int, int) {
	switch {
	case m < leafSize:
		return 1, 1
	case m == leafSize:
		return 1, 3 // m+1 >= 2 points split into two leaves
	}
	a, b := nodeCounts(m/2, leafSize)
	if m%2 == 0 {
		return 1 + 2*a, 1 + a + b
	}
	return 1 + a + b, 1 + 2*b
}

// pack moves the built points into the padded chunk columns the queries
// read, leaf by leaf in tree order — node order, since the nodes are laid
// out in pre-order — and rewrites each leaf's range to its chunk lanes.
func (t *Tree[T]) pack() {
	nch := 0
	for i := range t.nodes {
		if nd := &t.nodes[i]; nd.left < 0 {
			nch += int(nd.end-nd.start+15) / 16
		}
	}
	t.chunks = make([]chunk[T], nch)
	inf := T(math.Inf(1))
	next := int32(0) // next free chunk
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.left >= 0 {
			continue
		}
		pts := t.pts[nd.start:nd.end]
		nd.start = next * 16
		nd.end = nd.start + int32(len(pts))
		for i := 0; i < (len(pts)+15)&^15; i++ {
			c, k := &t.chunks[int(next)+i>>4], i&15
			if i < len(pts) {
				c.x[k], c.y[k], c.z[k], c.id[k] = pts[i].c[0], pts[i].c[1], pts[i].c[2], pts[i].id
			} else {
				c.x[k], c.y[k], c.z[k], c.id[k] = inf, inf, inf, -1
			}
		}
		next += int32(len(pts)+15) / 16
	}
	t.pts = nil
}

// parallelDepth returns how many top tree levels spawn goroutines.
func parallelDepth() int {
	d := 0
	for c := runtime.GOMAXPROCS(0); c > 1; c /= 2 {
		d++
	}
	return d
}

// build fills node ni over pts[start:end) and its subtree: the left child is
// node ni+1 and the right one follows the left subtree's nodeCount, so each
// goroutine writes only its own nodes and points and needs no lock.
func (t *Tree[T]) build(ni, start, end int32, spawn int, wg *sync.WaitGroup) {
	pts := t.pts[start:end]
	nd := &t.nodes[ni]
	x0, y0, z0 := pts[0].c[0], pts[0].c[1], pts[0].c[2]
	x1, y1, z1 := x0, y0, z0
	for i := 1; i < len(pts); i++ {
		c := &pts[i].c
		x0, x1 = extend(x0, x1, c[0])
		y0, y1 = extend(y0, y1, c[1])
		z0, z1 = extend(z0, z1, c[2])
	}
	nd.minX, nd.minY, nd.minZ = x0, y0, z0
	nd.maxX, nd.maxY, nd.maxZ = x1, y1, z1
	nd.start, nd.end = start, end
	if int(end-start) <= t.leafSize {
		nd.left, nd.right = -1, -1
		return
	}
	// Split along the widest axis at the median.
	ex := float64(x1 - x0)
	ey := float64(y1 - y0)
	ez := float64(z1 - z0)
	axis := 0
	if ey > ex && ey >= ez {
		axis = 1
	} else if ez > ex && ez > ey {
		axis = 2
	}
	mid := start + (end-start)/2
	t.selectNth(start, end, mid, axis)
	left, right := ni+1, ni+1+int32(nodeCount(int(mid-start), t.leafSize))
	nd.left, nd.right = left, right

	if spawn > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.build(left, start, mid, spawn-1, wg)
		}()
	} else {
		t.build(left, start, mid, 0, wg)
	}
	t.build(right, mid, end, max(spawn-1, 0), wg)
}

// extend widens [lo, hi] to take in v.
func extend[T Float](lo, hi, v T) (T, T) {
	if v < lo {
		lo = v
	}
	if v > hi {
		hi = v
	}
	return lo, hi
}

// selectNth partitions pts[start:end) so the nth element is in its sorted
// position along axis (quickselect with median-of-three pivots).
func (t *Tree[T]) selectNth(start, end, nth int32, axis int) {
	p := t.pts
	for end-start > 1 {
		lo, hi := start, end-1
		// Median-of-three pivot.
		mid := lo + (hi-lo)/2
		if p[mid].c[axis] < p[lo].c[axis] {
			p[mid], p[lo] = p[lo], p[mid]
		}
		if p[hi].c[axis] < p[lo].c[axis] {
			p[hi], p[lo] = p[lo], p[hi]
		}
		if p[hi].c[axis] < p[mid].c[axis] {
			p[hi], p[mid] = p[mid], p[hi]
		}
		pivot := p[mid].c[axis]
		i, j := lo, hi
		for i <= j {
			for p[i].c[axis] < pivot {
				i++
			}
			for p[j].c[axis] > pivot {
				j--
			}
			if i <= j {
				p[i], p[j] = p[j], p[i]
				i++
				j--
			}
		}
		switch {
		case nth <= j:
			end = j + 1
		case nth >= i:
			start = i
		default:
			return
		}
	}
}

// Len returns the number of indexed points.
func (t *Tree[T]) Len() int { return t.n }

// QueryRadius appends to out the original indices of all points within
// distance r of center (inclusive), and returns the extended slice. The
// distance test runs in the tree's storage precision T, mirroring the
// paper's single-precision tree search.
func (t *Tree[T]) QueryRadius(center geom.Vec3, r float64, out []int32) []int32 {
	if len(t.nodes) == 0 {
		return out
	}
	rr := T(r)
	return t.query(T(center.X), T(center.Y), T(center.Z), rr*rr, out)
}

// QueryRadiusImages appends to out the indices of all points within distance
// r of any image center+images[k], fusing a periodic image sweep into one
// call: image offsets whose shifted center cannot reach the tree's root
// bounding box are rejected with a single box test, so an interior primary's
// 27-image query costs one real traversal while an edge primary descends
// only for the handful of images that actually overlap the volume. Image
// centers are assumed at least 2r apart (the engine guarantees RMax < L/2),
// so no point can match twice and the output carries no duplicates.
func (t *Tree[T]) QueryRadiusImages(center geom.Vec3, r float64, images []geom.Vec3, out []int32) []int32 {
	if len(t.nodes) == 0 {
		return out
	}
	rr := T(r)
	r2 := rr * rr
	root := &t.nodes[0]
	for _, off := range images {
		cx := T(center.X + off.X)
		cy := T(center.Y + off.Y)
		cz := T(center.Z + off.Z)
		d2 := axisGap2(cx, root.minX, root.maxX) +
			axisGap2(cy, root.minY, root.maxY) +
			axisGap2(cz, root.minZ, root.maxZ)
		if d2 > r2 {
			continue
		}
		out = t.query(cx, cy, cz, r2, out)
	}
	return out
}

// query runs one radius traversal with an explicit stack (no per-call
// closure allocation; left subtrees are visited first, matching the old
// recursive order). The stack capacity covers any median-balanced tree.
func (t *Tree[T]) query(cx, cy, cz, r2 T, out []int32) []int32 {
	stack := make([]int32, 1, 64)
	stack[0] = 0
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[ni]
		// Distance from center to the node's bounding box.
		d2 := axisGap2(cx, nd.minX, nd.maxX) +
			axisGap2(cy, nd.minY, nd.maxY) +
			axisGap2(cz, nd.minZ, nd.maxZ)
		if d2 > r2 {
			continue
		}
		if nd.left < 0 {
			for i := nd.start; i < nd.end; i += 16 {
				c := &t.chunks[i>>4]
				for k := range min(16, nd.end-i) {
					dx := c.x[k] - cx
					dy := c.y[k] - cy
					dz := c.z[k] - cz
					if T(dx*dx)+T(dy*dy)+T(dz*dz) <= r2 {
						out = append(out, c.id[k])
					}
				}
			}
			continue
		}
		stack = append(stack, nd.right, nd.left)
	}
	return out
}

// boxes16 holds 16 reached leaves: their bounding boxes as columns, the shape
// boxMask16 tests at once, and their chunk ranges [c0, c1).
type boxes16[T Float] struct {
	minX, maxX, minY, maxY, minZ, maxZ [16]T
	c0, c1                             [16]int32
}

// leafList is the block query's scratch (kept on the Block between
// calls): the leaves pass 1 reached, image by image in tree order. Each
// image's run starts a fresh boxes16 group and the unused lanes of its last
// group hold the never-hit box [+Inf, -Inf], so pass 2 tests whole groups.
type leafList[T Float] struct {
	boxes []boxes16[T]
	segs  []imageRun
	stack []int32
	never boxes16[T]
}

// imageRun is one periodic image's run of boxes16 groups [lo, hi).
type imageRun struct{ img, lo, hi int32 }

func newLeafList[T Float]() *leafList[T] {
	l := &leafList[T]{}
	inf := T(math.Inf(1))
	for k := 0; k < 16; k++ {
		l.never.minX[k], l.never.minY[k], l.never.minZ[k] = inf, inf, inf
		l.never.maxX[k], l.never.maxY[k], l.never.maxZ[k] = -inf, -inf, -inf
	}
	return l
}

// QueryRadiusImagesBlock answers the radius query for a whole block of
// centers, filling blk with per-center neighbor lists whose content and order
// are identical to per-center QueryRadiusImages calls: per image, the
// tree-order points with d^2 <= r^2 (TestBlockQueryMatchesPerCenter and the
// engine's bitwise property tests pin this). Every prune below only skips
// leaves whose box is farther than r from the center under the monotone float
// arithmetic of the point test, so none can drop a point that test admits.
//
// Pass 1 walks the tree once per image against the centers' bounding box and
// records the reached leaves. The box is taken in float64 and shifted and
// cast per image — shift + cast is monotone, so every shifted center lies
// inside it. Pass 2 goes center-major over that list, so ids land directly
// in each center's run: boxMask over 16 leaf boxes at a time, then leafHits
// over the 16-point chunks of each leaf that passed. Node descent is paid
// once per block, and both tests run in lanes.
func (t *Tree[T]) QueryRadiusImagesBlock(centers []geom.Vec3, r float64, images []geom.Vec3, blk *Block) {
	nc := len(centers)
	blk.Reset(nc)
	if len(t.nodes) == 0 || nc == 0 {
		for range centers {
			blk.Seal()
		}
		return
	}
	l, _ := blk.Scratch.(*leafList[T])
	if l == nil {
		l = newLeafList[T]()
		blk.Scratch = l
	}
	rr := T(r)
	r2 := rr * rr

	lo, hi := centers[0], centers[0]
	for _, c := range centers[1:] {
		lo = geom.Vec3{X: min(lo.X, c.X), Y: min(lo.Y, c.Y), Z: min(lo.Z, c.Z)}
		hi = geom.Vec3{X: max(hi.X, c.X), Y: max(hi.Y, c.Y), Z: max(hi.Z, c.Z)}
	}
	l.boxes, l.segs = l.boxes[:0], l.segs[:0]
	for k, off := range images {
		x0, x1 := T(lo.X+off.X), T(hi.X+off.X)
		y0, y1 := T(lo.Y+off.Y), T(hi.Y+off.Y)
		z0, z1 := T(lo.Z+off.Z), T(hi.Z+off.Z)
		g0, n := len(l.boxes), 0
		stack := append(l.stack[:0], 0)
		for len(stack) > 0 {
			nd := &t.nodes[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			d2 := intervalGap2(nd.minX, nd.maxX, x0, x1) +
				intervalGap2(nd.minY, nd.maxY, y0, y1) +
				intervalGap2(nd.minZ, nd.maxZ, z0, z1)
			if d2 > r2 {
				continue
			}
			if nd.left >= 0 {
				stack = append(stack, nd.right, nd.left)
				continue
			}
			if n&15 == 0 {
				l.boxes = append(l.boxes, l.never)
			}
			b, j := &l.boxes[g0+n>>4], n&15
			b.minX[j], b.maxX[j] = nd.minX, nd.maxX
			b.minY[j], b.maxY[j] = nd.minY, nd.maxY
			b.minZ[j], b.maxZ[j] = nd.minZ, nd.maxZ
			b.c0[j], b.c1[j] = nd.start>>4, (nd.end+15)>>4
			n++
		}
		l.stack = stack
		if n > 0 {
			l.segs = append(l.segs, imageRun{img: int32(k), lo: int32(g0), hi: int32(len(l.boxes))})
		}
	}

	ids := blk.IDs
	for _, c := range centers {
		for _, sg := range l.segs {
			// Shift + cast exactly as the individual query does (float64 add,
			// then one rounding into the storage precision).
			off := images[sg.img]
			cx, cy, cz := T(c.X+off.X), T(c.Y+off.Y), T(c.Z+off.Z)
			for g := sg.lo; g < sg.hi; g++ {
				b := &l.boxes[g]
				for m := t.boxMask(b, cx, cy, cz, r2); m != 0; m &= m - 1 {
					j := bits.TrailingZeros16(m)
					for ch := b.c0[j]; ch < b.c1[j]; ch++ {
						ids = slices.Grow(ids, 16) // leafHits writes whole 16-lane rows
						n := len(ids)
						ids = ids[:n+t.leafHits(&t.chunks[ch], cx, cy, cz, r2, (*[16]int32)(ids[n:n+16]))]
					}
				}
			}
		}
		blk.IDs = ids
		blk.Seal()
	}
}

// boxMask16 is the portable leaf-box test: bit j is set when box j of b is
// within r of the center, the distance being the sum over X, Y, Z of
// max(lo-c, c-hi, 0)^2 — the values of the branchy axisGap2. Like
// leafHits16 it is comparison only and writes each product as T(d*d), so no
// build can fuse a multiply into an add and the AVX-512 bodies (VMULPS and
// VADDPS in the same order) are bit-identical by construction.
func boxMask16[T Float](b *boxes16[T], cx, cy, cz, r2 T) uint16 {
	var m uint16
	for j := 0; j < 16; j++ {
		dx := axisGap(b.minX[j], b.maxX[j], cx)
		dy := axisGap(b.minY[j], b.maxY[j], cy)
		dz := axisGap(b.minZ[j], b.maxZ[j], cz)
		if T(dx*dx)+T(dy*dy)+T(dz*dz) <= r2 {
			m |= 1 << j
		}
	}
	return m
}

// axisGap returns max(lo-c, c-hi, 0): how far c lies outside [lo, hi].
func axisGap[T Float](lo, hi, c T) T {
	d := lo - c
	if e := c - hi; e > d {
		d = e
	}
	if d < 0 {
		d = 0
	}
	return d
}

// leafHits16 is the portable point test: it writes the ids of the chunk's
// points with ((dx^2 + dy^2) + dz^2) <= r2 to the front of out, in lane
// order, and returns their count. Lanes past the count are scratch.
func leafHits16[T Float](c *chunk[T], cx, cy, cz, r2 T, out *[16]int32) int {
	n := 0
	for k := 0; k < 16; k++ {
		dx := c.x[k] - cx
		dy := c.y[k] - cy
		dz := c.z[k] - cz
		out[n&15] = c.id[k]
		if T(dx*dx)+T(dy*dy)+T(dz*dz) <= r2 {
			n++
		}
	}
	return n
}

// intervalGap2 returns the squared distance between two intervals along
// one axis (zero when they overlap).
func intervalGap2[T Float](alo, ahi, blo, bhi T) T {
	if alo > bhi {
		d := alo - bhi
		return T(d * d)
	}
	if blo > ahi {
		d := blo - ahi
		return T(d * d)
	}
	return 0
}

func axisGap2[T Float](c, lo, hi T) T {
	if c < lo {
		d := lo - c
		return T(d * d)
	}
	if c > hi {
		d := c - hi
		return T(d * d)
	}
	return 0
}
