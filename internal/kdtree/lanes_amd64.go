//go:build amd64

package kdtree

// The AVX-512 bodies of the two block-query tests (lanes_amd64.s): one ZMM
// register is the 16 float32 lanes of a boxes16 or chunk column.
func boxMask16AVX512(b *boxes16[float32], cx, cy, cz, r2 float32) uint16
func leafHits16AVX512(c *chunk[float32], cx, cy, cz, r2 float32, out *[16]int32) int

// bindLanes gives a float32 tree the AVX-512 bodies; a float64 tree keeps
// the portable ones.
func bindLanes[T Float](t *Tree[T]) {
	if t32, ok := any(t).(*Tree[float32]); ok {
		t32.boxMask, t32.leafHits = boxMask16AVX512, leafHits16AVX512
	}
}
