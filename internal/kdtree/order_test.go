package kdtree

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"galactos/internal/geom"
)

// orderInputs are the point sets TestBuildOrderPinned builds over: the
// shapes a median split can go wrong on.
func orderInputs() map[string][]geom.Vec3 {
	rng := rand.New(rand.NewSource(43))
	in := map[string][]geom.Vec3{"uniform": randPoints(rng, 3000, 100)}

	var clustered []geom.Vec3
	for c := 0; c < 12; c++ {
		ctr := geom.Vec3{X: rng.Float64() * 100, Y: rng.Float64() * 100, Z: rng.Float64() * 100}
		for i := 0; i < 250; i++ {
			clustered = append(clustered, geom.Vec3{
				X: ctr.X + 2*rng.NormFloat64(), Y: ctr.Y + 2*rng.NormFloat64(), Z: ctr.Z + 2*rng.NormFloat64(),
			})
		}
	}
	in["clustered"] = clustered

	coincident := make([]geom.Vec3, 300)
	for i := range coincident {
		coincident[i] = geom.Vec3{X: 1, Y: 1, Z: 1}
	}
	in["coincident"] = coincident

	collinear := make([]geom.Vec3, 1000)
	for i := range collinear {
		s := rng.Float64() * 50
		collinear[i] = geom.Vec3{X: s, Y: 2 * s, Z: 3 - s}
	}
	in["collinear"] = collinear

	// X is the widest axis and half the points sit within 1e-7 of X = 50,
	// distinct in float64 but mostly one float32 value: the root's median
	// falls inside that tie.
	ties := make([]geom.Vec3, 2000)
	for i := range ties {
		x := rng.Float64() * 100
		if i%2 == 0 {
			x = 50 + float64(rng.Intn(64))*1e-7
		}
		ties[i] = geom.Vec3{X: x, Y: rng.Float64() * 10, Z: rng.Float64() * 10}
	}
	in["float32-ties"] = ties
	return in
}

// orderHash hashes a tree's leaves in query (left-first) order: each leaf's
// bounding box, then the original ids of its points in chunk-lane order. Two
// trees with the same hash hand every query the same candidates in the same
// order.
func orderHash[T Float](t *Tree[T]) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	if len(t.nodes) == 0 {
		return h.Sum64()
	}
	stack := []int32{0}
	for len(stack) > 0 {
		nd := &t.nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		if nd.left >= 0 {
			stack = append(stack, nd.right, nd.left)
			continue
		}
		for _, v := range []T{nd.minX, nd.minY, nd.minZ, nd.maxX, nd.maxY, nd.maxZ} {
			put(math.Float64bits(float64(v)))
		}
		for i := nd.start; i < nd.end; i++ {
			put(uint64(uint32(t.chunks[i>>4].id[i&15])))
		}
	}
	return h.Sum64()
}

// TestNodeCountClosedForm checks Build's O(log n) node count against the
// split rule applied node by node.
func TestNodeCountClosedForm(t *testing.T) {
	for _, leaf := range []int{1, 2, 3, 16, 40} {
		for n := 1; n <= 3000; n++ {
			if got, want := nodeCount(n, leaf), wantNodes(n, leaf); got != want {
				t.Fatalf("nodeCount(%d, %d) = %d, want %d", n, leaf, got, want)
			}
		}
	}
}

// wantNodes is the tree's size by the split rule, node by node: a range of n
// points is a leaf when n <= leafSize, else a node over its two halves
// [0, n/2) and [n/2, n).
func wantNodes(n, leafSize int) int {
	if n == 0 {
		return 0
	}
	if n <= leafSize {
		return 1
	}
	return 1 + wantNodes(n/2, leafSize) + wantNodes(n-n/2, leafSize)
}

// TestBuildOrderPinned pins the order a tree hands out its points — the
// leaf boxes and the packed chunk ids in tree order — to the values the
// mutex-allocated build produced, for both storage precisions and three leaf
// sizes. The engine's gather, and so every floating-point sum downstream,
// follows that order: a build that lays its nodes out differently must still
// split, select and pack exactly as before.
func TestBuildOrderPinned(t *testing.T) {
	want := map[string]uint64{
		"clustered/leaf1/float32":     0x6df45bdda9195e8d,
		"clustered/leaf1/float64":     0xef0d5bcec4f16d71,
		"clustered/leaf16/float32":    0xd6b32471fc1bea28,
		"clustered/leaf16/float64":    0xe22e619744c7728c,
		"clustered/leaf40/float32":    0x4c95fa8f4d4b8b02,
		"clustered/leaf40/float64":    0x8b481d8ed8e02513,
		"coincident/leaf1/float32":    0x462bfd6a9fb72ac1,
		"coincident/leaf1/float64":    0x462bfd6a9fb72ac1,
		"coincident/leaf16/float32":   0x98bfdd7fc6d7c3bd,
		"coincident/leaf16/float64":   0x98bfdd7fc6d7c3bd,
		"coincident/leaf40/float32":   0xcb27464c9df7f4fd,
		"coincident/leaf40/float64":   0xcb27464c9df7f4fd,
		"collinear/leaf1/float32":     0x28354cabaf2254cd,
		"collinear/leaf1/float64":     0xe6c4262e8f99e701,
		"collinear/leaf16/float32":    0xb0f26d46ed56b983,
		"collinear/leaf16/float64":    0xf915276adc5d8bc4,
		"collinear/leaf40/float32":    0x217cda8f405732cf,
		"collinear/leaf40/float64":    0x6629d5a275f55619,
		"float32-ties/leaf1/float32":  0x211065c99d00e551,
		"float32-ties/leaf1/float64":  0x208e40cac368a995,
		"float32-ties/leaf16/float32": 0xc0ab8ccc1f035a47,
		"float32-ties/leaf16/float64": 0xde9117d46767766b,
		"float32-ties/leaf40/float32": 0x8cd0ddadd79af8a7,
		"float32-ties/leaf40/float64": 0x5513264f1d7089a6,
		"uniform/leaf1/float32":       0xfd97968e4627dd5,
		"uniform/leaf1/float64":       0x8f7dd3e1ec34cbf9,
		"uniform/leaf16/float32":      0x3cfb98595f3eb4dd,
		"uniform/leaf16/float64":      0x1b1e25f31e07a3c1,
		"uniform/leaf40/float32":      0x1a8acac35703ee31,
		"uniform/leaf40/float64":      0x84294aa856595540,
	}
	for name, pts := range orderInputs() {
		for _, leaf := range []int{1, 16, 40} {
			for _, prec := range []string{"float32", "float64"} {
				key := fmt.Sprintf("%s/leaf%d/%s", name, leaf, prec)
				var got uint64
				var nodes int
				if prec == "float32" {
					tr := Build[float32](pts, leaf)
					got, nodes = orderHash(tr), len(tr.nodes)
				} else {
					tr := Build[float64](pts, leaf)
					got, nodes = orderHash(tr), len(tr.nodes)
				}
				if w := wantNodes(len(pts), leaf); nodes != w {
					t.Errorf("%s: %d nodes, split rule %d", key, nodes, w)
				}
				if w, ok := want[key]; !ok || got != w {
					t.Errorf("%s: order hash %#x, want %#x", key, got, w)
				}
			}
		}
	}
}
