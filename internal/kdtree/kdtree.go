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
// once. A leaf owns whole chunks; the lanes past its last point carry NaN
// coordinates, which are within no radius, not even one whose square
// overflows to +Inf.
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
	nodes    []node[T] // the binary tree the per-center queries walk
	leafSize int
	n        int

	// levels is the leaf-box hierarchy the block query descends: levels[0]
	// holds every leaf's box and chunk range in tree order, 16 to a group,
	// and each level above holds the union boxes of the groups below it
	// (lane j of group g covers group 16g+j one level down), up to a top
	// level of one group. Unused lanes hold the never-hit box [+Inf, -Inf]
	// and an empty chunk range. groupChunks[g] is the chunk total of the
	// leaves of levels[0][g].
	levels      [][]boxes16[T]
	groupChunks []int32

	// gather is the block query's per-center body, bound at Build to the
	// process's lane-dispatch decision: gatherRunAVX512 on a float32 tree
	// when lanes.Vector(), the portable gatherRun otherwise. The bodies
	// return identical lists, so which one runs never shows in a result.
	gather func(groups []boxes16[T], idx []int32, chunks []chunk[T], cx, cy, cz, r2 T, out []int32) int
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
	}
	t.gather = t.gatherRun
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
	t.buildLevels()
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
	nan := T(math.NaN())
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
				c.x[k], c.y[k], c.z[k], c.id[k] = nan, nan, nan, -1
			}
		}
		next += int32(len(pts)+15) / 16
	}
	t.pts = nil
}

// buildLevels lays the packed leaves' boxes out in tree order as
// levels[0] and adds union levels above it until one group holds the top.
func (t *Tree[T]) buildLevels() {
	var leaves []boxes16[T]
	n := 0
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.left >= 0 {
			continue
		}
		if n&15 == 0 {
			leaves = append(leaves, neverBoxes[T]())
		}
		b, j := &leaves[n>>4], n&15
		b.minX[j], b.maxX[j] = nd.minX, nd.maxX
		b.minY[j], b.maxY[j] = nd.minY, nd.maxY
		b.minZ[j], b.maxZ[j] = nd.minZ, nd.maxZ
		b.c0[j], b.c1[j] = nd.start>>4, (nd.end+15)>>4
		n++
	}
	t.groupChunks = make([]int32, len(leaves))
	for g := range leaves {
		b := &leaves[g]
		for j := 0; j < 16; j++ {
			t.groupChunks[g] += b.c1[j] - b.c0[j]
		}
	}
	t.levels = [][]boxes16[T]{leaves}
	for below := leaves; len(below) > 1; {
		up := make([]boxes16[T], (len(below)+15)/16)
		for g := range up {
			up[g] = neverBoxes[T]()
		}
		for i := range below {
			c, u, j := &below[i], &up[i>>4], i&15
			for k := 0; k < 16; k++ {
				u.minX[j], u.maxX[j] = min(u.minX[j], c.minX[k]), max(u.maxX[j], c.maxX[k])
				u.minY[j], u.maxY[j] = min(u.minY[j], c.minY[k]), max(u.maxY[j], c.maxY[k])
				u.minZ[j], u.maxZ[j] = min(u.minZ[j], c.minZ[k]), max(u.maxZ[j], c.maxZ[k])
			}
		}
		t.levels = append(t.levels, up)
		below = up
	}
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

// boxes16 holds 16 boxes as columns, the shape boxMask16 tests at once: one
// group of a hierarchy level. On level 0, c0 and c1 are each leaf's chunk
// range [c0, c1).
type boxes16[T Float] struct {
	minX, maxX, minY, maxY, minZ, maxZ [16]T
	c0, c1                             [16]int32
}

// neverBoxes returns a group of never-hit boxes [+Inf, -Inf] with empty
// chunk ranges.
func neverBoxes[T Float]() boxes16[T] {
	var b boxes16[T]
	inf := T(math.Inf(1))
	for k := 0; k < 16; k++ {
		b.minX[k], b.minY[k], b.minZ[k] = inf, inf, inf
		b.maxX[k], b.maxY[k], b.maxZ[k] = -inf, -inf, -inf
	}
	return b
}

// span is an axis-aligned query box: the shifted bounding box of a block's
// centers in pass 1, one shifted center (lo == hi) in pass 2.
type span[T Float] struct{ x0, x1, y0, y1, z0, z1 T }

// leafList is the block query's scratch (kept on the Block between calls):
// the leaf groups pass 1 reached, image by image in tree order, as indices
// into the tree's levels[0].
type leafList struct {
	groups []int32
	runs   []imageRun
}

// imageRun is one periodic image's run of reached leaf groups
// groups[lo:hi] and their chunk total: no center of the run can hit more
// than 16 ids a chunk.
type imageRun struct{ img, lo, hi, chunks int32 }

// QueryRadiusImagesBlock answers the radius query for a whole block of
// centers, filling blk with per-center neighbor lists whose content and order
// are identical to per-center QueryRadiusImages calls: per image, the
// tree-order points with d^2 <= r^2 (TestBlockQueryMatchesPerCenter and the
// engine's bitwise property tests pin this). Every prune below only skips
// leaves whose box is farther than r from the center under the monotone float
// arithmetic of the point test, so none can drop a point that test admits.
//
// Pass 1 descends the leaf-box hierarchy once per image against the
// centers' bounding box, 16 union boxes to a boxMask16 test, down to the
// leaf groups, which it collects in tree order. The box is taken in float64
// and shifted and cast per image — shift + cast is monotone, so every
// shifted center lies inside it. Pass 2 goes center-major, one gather call
// per (center, image run) into output headroom reserved once from the run's
// chunk total, so ids land directly in each center's run: boxMask16 over
// each reached group's 16 leaf boxes, then leafHits16 over the chunks of
// each leaf that passed, in ascending lane order.
func (t *Tree[T]) QueryRadiusImagesBlock(centers []geom.Vec3, r float64, images []geom.Vec3, blk *Block) {
	nc := len(centers)
	blk.Reset(nc)
	if len(t.nodes) == 0 || nc == 0 {
		for range centers {
			blk.Seal()
		}
		return
	}
	l, _ := blk.Scratch.(*leafList)
	if l == nil {
		l = &leafList{}
		blk.Scratch = l
	}
	rr := T(r)
	r2 := rr * rr

	lo, hi := centers[0], centers[0]
	for _, c := range centers[1:] {
		lo = geom.Vec3{X: min(lo.X, c.X), Y: min(lo.Y, c.Y), Z: min(lo.Z, c.Z)}
		hi = geom.Vec3{X: max(hi.X, c.X), Y: max(hi.Y, c.Y), Z: max(hi.Z, c.Z)}
	}
	root := &t.nodes[0]
	l.groups, l.runs = l.groups[:0], l.runs[:0]
	for k, off := range images {
		q := span[T]{
			T(lo.X + off.X), T(hi.X + off.X),
			T(lo.Y + off.Y), T(hi.Y + off.Y),
			T(lo.Z + off.Z), T(hi.Z + off.Z),
		}
		// One scalar test against the root box rejects most images.
		if gap2(root.minX, root.maxX, q.x0, q.x1)+gap2(root.minY, root.maxY, q.y0, q.y1)+
			gap2(root.minZ, root.maxZ, q.z0, q.z1) > r2 {
			continue
		}
		g0 := int32(len(l.groups))
		if top := len(t.levels) - 1; top == 0 {
			l.groups = append(l.groups, 0)
		} else {
			t.reach(l, top, 0, &q, r2)
		}
		if g1 := int32(len(l.groups)); g1 > g0 {
			run := imageRun{img: int32(k), lo: g0, hi: g1}
			for _, g := range l.groups[g0:] {
				run.chunks += t.groupChunks[g]
			}
			l.runs = append(l.runs, run)
		}
	}

	ids := blk.IDs
	for _, c := range centers {
		for _, run := range l.runs {
			// Shift + cast exactly as the individual query does (float64 add,
			// then one rounding into the storage precision).
			off := images[run.img]
			room := 16 * int(run.chunks)
			ids = slices.Grow(ids, room)
			n := len(ids)
			ids = ids[:n+t.gather(t.levels[0], l.groups[run.lo:run.hi], t.chunks,
				T(c.X+off.X), T(c.Y+off.Y), T(c.Z+off.Z), r2, ids[n:n+room])]
		}
		blk.IDs = ids
		blk.Seal()
	}
}

// reach appends to l.groups, in tree order, the leaf groups under group g of
// level lv > 0 whose union boxes lie within r of q.
func (t *Tree[T]) reach(l *leafList, lv, g int, q *span[T], r2 T) {
	for m := boxMask16(&t.levels[lv][g], q, r2); m != 0; m &= m - 1 {
		j := 16*g + bits.TrailingZeros16(m)
		if j >= len(t.levels[lv-1]) {
			break // a never-hit lane, passed only when r2 is +Inf
		}
		if lv == 1 {
			l.groups = append(l.groups, int32(j))
		} else {
			t.reach(l, lv-1, j, q, r2)
		}
	}
}

// gatherRun is the portable gather body: for each leaf group groups[i], i in
// idx, in order, boxMask16 at the center, then for each passing leaf in
// ascending lane order leafHits16 over its chunks, the hits written to out
// in that order. It returns their count. out must hold 16 ids for every
// chunk of those groups; lanes past the count are scratch. A group whose
// union box (its lane one level up) lies beyond r is skipped whole: in Go,
// one scalar test costs a tenth of the 16-lane one.
func (t *Tree[T]) gatherRun(groups []boxes16[T], idx []int32, chunks []chunk[T], cx, cy, cz, r2 T, out []int32) int {
	q := span[T]{cx, cx, cy, cy, cz, cz}
	n := 0
	for _, g := range idx {
		if len(t.levels) > 1 {
			u, j := &t.levels[1][g>>4], g&15
			if gap2(u.minX[j], u.maxX[j], cx, cx)+gap2(u.minY[j], u.maxY[j], cy, cy)+gap2(u.minZ[j], u.maxZ[j], cz, cz) > r2 {
				continue
			}
		}
		b := &groups[g]
		for m := boxMask16(b, &q, r2); m != 0; m &= m - 1 {
			j := bits.TrailingZeros16(m)
			for ch := b.c0[j]; ch < b.c1[j]; ch++ {
				n += leafHits16(&chunks[ch], cx, cy, cz, r2, (*[16]int32)(out[n:n+16]))
			}
		}
	}
	return n
}

// boxMask16 is the 16-lane box test: bit j is set when box j of b lies
// within r of q, the distance being the sum over X, Y, Z of
// max(lo-q1, q0-hi, 0)^2; at a point query those are the values of the
// branchy axisGap2, and for a box query they bound those of every point in
// it from below. Like leafHits16 it is comparison only and writes each
// product as T(d*d), so no build can fuse a multiply into an add and the
// AVX-512 body (VMULPS and VADDPS in the same order) is bit-identical by
// construction.
func boxMask16[T Float](b *boxes16[T], q *span[T], r2 T) uint16 {
	var m uint16
	for j := 0; j < 16; j++ {
		dx := gap(b.minX[j], b.maxX[j], q.x0, q.x1)
		dy := gap(b.minY[j], b.maxY[j], q.y0, q.y1)
		dz := gap(b.minZ[j], b.maxZ[j], q.z0, q.z1)
		if T(dx*dx)+T(dy*dy)+T(dz*dz) <= r2 {
			m |= 1 << j
		}
	}
	return m
}

// gap returns max(lo-q1, q0-hi, 0): how far [q0, q1] lies outside [lo, hi].
func gap[T Float](lo, hi, q0, q1 T) T {
	d := lo - q1
	if e := q0 - hi; e > d {
		d = e
	}
	if d < 0 {
		d = 0
	}
	return d
}

// gap2 returns gap's square.
func gap2[T Float](lo, hi, q0, q1 T) T {
	d := gap(lo, hi, q0, q1)
	return T(d * d)
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
