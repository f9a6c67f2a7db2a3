//go:build !amd64

package sphharm

// Non-amd64 hosts run the pure-Go lane primitives (the package function
// variables keep their generic bindings from kernel.go).

// bindVectorLanes is unreachable without a vector implementation;
// SetLaneDispatch only calls it when lanes.Set accepted the vector bodies.
func bindVectorLanes() {}
