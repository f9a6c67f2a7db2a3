//go:build linux

package sphharm

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n values that end exactly where an inaccessible page
// begins, so any access past the last one faults, and the unmap.
func guarded[T any](t *testing.T, n int) ([]T, func()) {
	t.Helper()
	w := int(unsafe.Sizeof(*new(T)))
	page := syscall.Getpagesize()
	size := (n*w+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		syscall.Munmap(mem)
		t.Skipf("mprotect: %v", err)
	}
	end := size - page
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[end-n*w])), n), func() { syscall.Munmap(mem) }
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
				a2, free1 := guarded[float64](t, n)
				xy, free2 := guarded[float64](t, n)
				w, free3 := guarded[float64](t, k)
				cd, free4 := guarded[float64](t, 2*nb*nb)
				rd, free5 := guarded[float64](t, nb*nb)
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

func TestLadderTouchesNothingPastItsOperands(t *testing.T) {
	// The ladder reads the chunk's weights and z column itself (the hoist
	// moved into it), besides xs and ys: with each of ws, zs, xs and ys
	// ending at an inaccessible page, a load past the chunk — even in a
	// masked-out lane — faults, for every register-resident length, the
	// quad path's tails, and a full chunk, fresh or folding into acc.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const zcap = 128
	var ns []int
	for n := 1; n <= 40; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 63, 64, 65, 127, 128)
	eachDispatch(t, func(tag string) {
		rng := rand.New(rand.NewSource(93))
		for _, n := range ns {
			ws, free1 := guarded[float64](t, n)
			zs, free2 := guarded[float64](t, n)
			xs, free3 := guarded[float64](t, n)
			ys, free4 := guarded[float64](t, n)
			for i := range ws {
				ws[i], zs[i], xs[i], ys[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			}
			c, s := make([]float64, n), make([]float64, n)
			for _, l := range []int{0, 1, 4, 10, 20} {
				acc := make([]float64, AccumulatorLen(NewMonomialTable(l)))
				zpow := make([]float64, l*zcap)
				for _, fresh := range []bool{true, false} {
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%s n=%d l=%d fresh=%v: %v", tag, n, l, fresh, r)
							}
						}()
						ladder(acc, c, s, ws, xs, ys, zs, zpow, zcap, l, fresh)
					}()
				}
			}
			for _, free := range []func(){free1, free2, free3, free4} {
				free()
			}
		}
	})
}

func TestReduceBinsTouchesNothingPastItsOperands(t *testing.T) {
	// A last group of bins reads only its bins' accumulators and counts and
	// writes only its rows' columns, in either way it is reduced: with acc,
	// cnt and out each ending at an inaccessible page, a load or store past
	// them — a masked-out lane's, a run of sums past the bin's last, a
	// scattered row past the last — faults, for every bin count to 24 at sum
	// counts below one run of eight, with a short last run, and at L 10.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	eachDispatch(t, func(tag string) {
		rng := rand.New(rand.NewSource(95))
		for _, ns := range []int{1, 9, 121} {
			for nb := 1; nb <= 24; nb++ {
				acc, free1 := guarded[float64](t, nb*ns*Lanes)
				cnt, free2 := guarded[int32](t, nb)
				out, free3 := guarded[float64](t, ns*BinStride(nb))
				for i := range acc {
					acc[i] = rng.NormFloat64()
				}
				for b := range cnt {
					cnt[b] = int32(rng.Intn(3))
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s ns=%d nb=%d: %v", tag, ns, nb, r)
						}
					}()
					ReduceBins(acc, cnt, out)
				}()
				for _, free := range []func(){free1, free2, free3} {
					free()
				}
			}
		}
	})
}

func TestAlmBinsTouchesNothingPastItsOperands(t *testing.T) {
	// Each conversion block loads only its groups' sums and scales and
	// stores only its bins: with sums, scale, the slab and the weighted leg
	// each ending at an inaccessible page (the slab's last row, its primary
	// the unit's last, ends right at it), a masked-out lane's access past
	// them faults, for every bin count to 24 — blocks of one or two groups,
	// under every chunk mask — in the split and the packed layout.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	eachDispatch(t, func(tag string) {
		rng := rand.New(rand.NewSource(96))
		for _, l := range []int{0, 1, 10} {
			mono := NewMonomialTable(l)
			tab := NewYlmTable(l, mono)
			pc := PairCount(l)
			for nb := 1; nb <= 24; nb++ {
				const k = 3
				stride := k * 2 * nb
				sums, free1 := guarded[float64](t, mono.Len()*BinStride(nb))
				scale, free2 := guarded[float64](t, nb)
				dst, free3 := guarded[float64](t, (pc-1)*stride+2*nb)
				w, free4 := guarded[float64](t, len(dst))
				for i := range sums {
					sums[i] = rng.NormFloat64()
				}
				for i := range scale {
					scale[i] = rng.NormFloat64()
				}
				for _, packed := range []bool{false, true} {
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%s L=%d nb=%d packed=%v: %v", tag, l, nb, packed, r)
							}
						}()
						if packed {
							tab.AlmBinsPacked(sums, nb, scale, dst, w, stride)
						} else {
							tab.AlmBins(sums, nb, dst, stride)
						}
					}()
				}
				for _, free := range []func(){free1, free2, free3, free4} {
					free()
				}
			}
		}
	})
}
