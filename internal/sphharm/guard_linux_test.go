//go:build linux

package sphharm

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float64s that end exactly where an inaccessible page
// begins, so any access past the last one faults, and the unmap.
func guarded(t *testing.T, n int) ([]float64, func()) {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*8+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		syscall.Munmap(mem)
		t.Skipf("mprotect: %v", err)
	}
	end := size - page
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[end-n*8])), n), func() { syscall.Munmap(mem) }
}

func TestZetaBatchTouchesNothingPastItsOperands(t *testing.T) {
	// The masked strips must neither read nor write past any operand, even
	// in lanes whose values are discarded (which TestZetaBatchStaysInBounds
	// cannot see): with each of dst, a2, xy and w ending at an inaccessible
	// page, such an access faults, and SetPanicOnFault turns the fault into
	// this test's failure.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	eachDispatch(t, func(tag string) {
		rng := rand.New(rand.NewSource(92))
		for _, nb := range zetaNBs {
			for _, k := range zetaKs {
				n := k * 2 * nb
				a2, free1 := guarded(t, n)
				xy, free2 := guarded(t, n)
				w, free3 := guarded(t, k)
				cd, free4 := guarded(t, 2*nb*nb)
				rd, free5 := guarded(t, nb*nb)
				for i := range a2 {
					a2[i], xy[i] = rng.NormFloat64(), rng.NormFloat64()
				}
				for i := range w {
					w[i] = rng.ExpFloat64()
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s nb=%d k=%d: %v", tag, nb, k, r)
						}
					}()
					ZetaBatch(unsafe.Slice((*complex128)(unsafe.Pointer(&cd[0])), nb*nb), a2, xy, nb, k)
					ZetaBatchIso(rd, a2, w, nb, k)
				}()
				for _, free := range []func(){free1, free2, free3, free4, free5} {
					free()
				}
			}
		}
	})
}
