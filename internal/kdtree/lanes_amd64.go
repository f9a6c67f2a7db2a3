//go:build amd64

package kdtree

// gatherRunAVX512 is gatherRun's AVX-512 body (lanes_amd64.s): one ZMM
// register is the 16 float32 lanes of a boxes16 or chunk column.
//
//go:noescape
func gatherRunAVX512(groups []boxes16[float32], idx []int32, chunks []chunk[float32], cx, cy, cz, r2 float32, out []int32) int

// bindLanes gives a float32 tree the AVX-512 body; a float64 tree keeps the
// portable one.
func bindLanes[T Float](t *Tree[T]) {
	if t32, ok := any(t).(*Tree[float32]); ok {
		t32.gather = gatherRunAVX512
	}
}
