//go:build !amd64

package kdtree

// bindLanes is unreachable without a vector implementation: lanes.Vector()
// never holds off amd64.
func bindLanes[T Float](*Tree[T]) {}
