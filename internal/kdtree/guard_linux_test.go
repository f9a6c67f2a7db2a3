//go:build linux

package kdtree

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"galactos/internal/catalog"
	"galactos/internal/geom"
	"galactos/internal/lanes"
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

// TestGatherTouchesNothingPastItsHeadroom: the gather body stores whole
// 16-lane rows, and the block query hands each (center, image run) call 16
// ids of headroom a chunk of the run. With that headroom, and the run's
// group indices, ending at an inaccessible page, a row stored or an index
// read past them faults, and SetPanicOnFault turns the fault into this
// test's failure. "full" is 256 points that all lie within r of every
// center, 16 full chunks, so the rows fill the headroom exactly; "sparse"
// is the sharded engine's shape (clustered, periodic, RMax 5). Each call's
// ids must also be the block query's, under both lane bodies.
func TestGatherTouchesNothingPastItsHeadroom(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer lanes.Set(lanes.Vector())
	rng := rand.New(rand.NewSource(56))
	full := make([]geom.Vec3, 256)
	for i := range full {
		full[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	cat := catalog.Clustered(24000, catalog.BoxForDensity(24000), catalog.DefaultClusterParams(), 1)
	cases := []struct {
		name    string
		pts     []geom.Vec3
		r       float64
		images  []geom.Vec3
		centers []geom.Vec3
	}{
		{"full", full, 10, []geom.Vec3{{}}, full[:31]},
		{"sparse", cat.Positions(), 5, cat.Box.Images(5), cat.Positions()[:1240]},
	}
	for _, vector := range []bool{false, true} {
		if lanes.Set(vector) != vector {
			t.Logf("no AVX-512 on this host: portable body only")
			continue
		}
		for _, tc := range cases {
			name := fmt.Sprintf("vector=%v/%s", vector, tc.name)
			tree := Build[float32](tc.pts, 0)
			rr := float32(tc.r)
			filled := false
			var blk Block
			for u := 0; u < len(tc.centers); u += 31 {
				unit := tc.centers[u:min(u+31, len(tc.centers))]
				tree.QueryRadiusImagesBlock(unit, tc.r, tc.images, &blk)
				l := blk.Scratch.(*leafList)
				for i, c := range unit {
					var got []int32
					for _, run := range l.runs {
						room := 16 * int(run.chunks)
						out, freeOut := guarded[int32](t, room)
						idx, freeIdx := guarded[int32](t, int(run.hi-run.lo))
						copy(idx, l.groups[run.lo:run.hi])
						off := tc.images[run.img]
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Fatalf("%s: center %d, run of %d groups and %d chunks: %v", name, u+i, len(idx), run.chunks, r)
								}
							}()
							n := tree.gather(tree.levels[0], idx, tree.chunks,
								float32(c.X+off.X), float32(c.Y+off.Y), float32(c.Z+off.Z), rr*rr, out)
							got = append(got, out[:n]...)
							filled = filled || n == room
						}()
						freeOut()
						freeIdx()
					}
					if want := blk.List(i); !slices.Equal(got, want) {
						t.Fatalf("%s: center %d: gather %v, block query %v", name, u+i, got, want)
					}
				}
			}
			if tc.name == "full" && !filled {
				t.Fatalf("%s: no call filled its headroom; the case lost its shape", name)
			}
		}
	}
}
