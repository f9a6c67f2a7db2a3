//go:build race

package catalog

// raceBuild reports a -race build, whose instrumentation adds allocations
// that allocation-count checks must not read as the code's own.
const raceBuild = true
