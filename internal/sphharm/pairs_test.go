package sphharm

import (
	"math"
	"math/rand"
	"testing"

	"galactos/internal/geom"
)

// pairOracle is the engine's scalar assembly loop as it stood before
// PairColumns replaced it, kept here as the plain oracle both bodies are
// held to bit for bit. clamps counts the pairs whose bin took the
// bin >= NBins guard.
type pairOracle struct {
	x, y, z, w []float64
	bin, id    []int32
	clamps     int
}

func scalarPairs(g *PairShell, pts []geom.Vec3, ws []float64, pi int32, ids []int32) (o pairOracle) {
	ppos := pts[pi]
	for _, j := range ids {
		if j == pi {
			continue
		}
		sep := g.Box.Separation(ppos, pts[j])
		r2 := sep.Norm2()
		if r2 == 0 {
			continue
		}
		r := math.Sqrt(r2)
		if r < g.RMin || r >= g.RMax {
			continue
		}
		bin := int32((r - g.RMin) * g.InvW)
		if bin >= g.NBins {
			bin = g.NBins - 1
			o.clamps++
		}
		inv := 1 / r
		o.x = append(o.x, sep.X*inv)
		o.y = append(o.y, sep.Y*inv)
		o.z = append(o.z, sep.Z*inv)
		o.w = append(o.w, ws[j])
		o.bin = append(o.bin, bin)
		o.id = append(o.id, j)
	}
	return o
}

// rotated is the oracle under a line-of-sight frame: the frame applied to
// each unit separation as the engine's column rotation applied it before
// PairColumns took the frame, (f0*x + f1*y) + f2*z with every product
// rounded. A nil frame leaves the columns as they are.
func (o pairOracle) rotated(f *geom.Rotation) pairOracle {
	if f == nil {
		return o
	}
	r := o
	r.x, r.y, r.z = make([]float64, len(o.x)), make([]float64, len(o.x)), make([]float64, len(o.x))
	for i := range o.x {
		x, y, z := o.x[i], o.y[i], o.z[i]
		r.x[i] = float64(f[0][0]*x) + float64(f[0][1]*y) + float64(f[0][2]*z)
		r.y[i] = float64(f[1][0]*x) + float64(f[1][1]*y) + float64(f[1][2]*z)
		r.z[i] = float64(f[2][0]*x) + float64(f[2][1]*y) + float64(f[2][2]*z)
	}
	return r
}

// pairFrames are the frames every PairColumns check runs under: none, the
// identity, the line-of-sight frames of each axis direction and of a
// direction one ulp off it (ToLineOfSight's seed choice flips there), and
// random line-of-sight frames.
var pairFrames = func() []*geom.Rotation {
	id := geom.Identity()
	fs := []*geom.Rotation{nil, &id}
	add := func(p geom.Vec3) {
		f := geom.ToLineOfSight(p)
		fs = append(fs, &f)
	}
	for _, sgn := range []float64{1, -1} {
		add(geom.Vec3{X: sgn})
		add(geom.Vec3{Y: sgn})
		add(geom.Vec3{Z: sgn})
		add(geom.Vec3{X: sgn, Y: 0x1p-52})
		add(geom.Vec3{Y: sgn, Z: 0x1p-52})
		add(geom.Vec3{Z: sgn, X: 0x1p-52})
	}
	rng := rand.New(rand.NewSource(43))
	for range 4 {
		add(geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
	}
	return fs
}()

// checkPairColumns holds PairColumns under every frame of pairFrames and
// every dispatch tag of this host, with and without the id column, to the
// oracle: count, directions, weight, bin and id of every survivor, bitwise.
// It returns the oracle's unrotated output.
func checkPairColumns(t *testing.T, g *PairShell, pts []geom.Vec3, ws []float64, pi int32, ids []int32) pairOracle {
	t.Helper()
	plain := scalarPairs(g, pts, ws, pi, ids)
	need := (len(ids) + Lanes - 1) &^ (Lanes - 1)
	for fi, frame := range pairFrames {
		want := plain.rotated(frame)
		eachDispatch(t, func(tag string) {
			t.Helper()
			for _, withID := range []bool{false, true} {
				out := PairCols{
					X: make([]float64, need), Y: make([]float64, need), Z: make([]float64, need),
					W: make([]float64, need), Bin: make([]int32, need),
				}
				if withID {
					out.ID = make([]int32, need)
				}
				n := PairColumns(g, frame, pts, ws, pi, ids, &out)
				if n != len(want.x) {
					t.Fatalf("%s frame %d len %d: %d survivors, want %d", tag, fi, len(ids), n, len(want.x))
				}
				for i := 0; i < n; i++ {
					if math.Float64bits(out.X[i]) != math.Float64bits(want.x[i]) ||
						math.Float64bits(out.Y[i]) != math.Float64bits(want.y[i]) ||
						math.Float64bits(out.Z[i]) != math.Float64bits(want.z[i]) ||
						math.Float64bits(out.W[i]) != math.Float64bits(want.w[i]) ||
						out.Bin[i] != want.bin[i] || (withID && out.ID[i] != want.id[i]) {
						t.Fatalf("%s frame %d len %d survivor %d (id %d): (%v %v %v) w %v bin %d, want (%v %v %v) w %v bin %d",
							tag, fi, len(ids), i, want.id[i], out.X[i], out.Y[i], out.Z[i], out.W[i], out.Bin[i],
							want.x[i], want.y[i], want.z[i], want.w[i], want.bin[i])
					}
				}
			}
		})
	}
	return plain
}

func shell(l, rmin, rmax float64, nbins int) *PairShell {
	return &PairShell{
		Box: geom.Periodic{L: l}, RMin: rmin, RMax: rmax,
		InvW: float64(nbins) / (rmax - rmin), NBins: int32(nbins),
	}
}

func TestPairColumnsMatchesScalarLoop(t *testing.T) {
	// Random neighborhoods: every list length around the 8-lane step, the
	// primary's own id at the head, middle and tail of its list, a coincident
	// tracer, points outside [0, L) that need whole box sides taken off, open
	// and periodic boxes, RMin = 0 and RMin > 0.
	rng := rand.New(rand.NewSource(41))
	const side = 100.0
	for _, g := range []*PairShell{
		shell(side, 0, 15, 10), shell(side, 3, 15, 12), shell(0, 0, 15, 10), shell(0, 25, 45, 12),
	} {
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000} {
			pts := make([]geom.Vec3, n+2)
			ws := make([]float64, len(pts))
			center := geom.Vec3{X: rng.Float64() * side, Y: rng.Float64() * side, Z: rng.Float64() * side}
			for i := range pts {
				// Within ~1.2 RMax of the primary, so most pairs survive.
				d := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
				p := center.Add(d.Scale(g.RMax * 0.6))
				if g.Box.L > 0 {
					p = g.Box.Wrap(p)
					if i%5 == 0 { // a stray image: one to three box sides out
						p.X += side * float64(1+i%3)
						p.Y -= side * float64(1+i%2)
					}
				}
				pts[i] = p
				ws[i] = rng.Float64()*2 - 0.5
			}
			pi := int32(n) // the primary
			pts[n+1] = pts[pi]
			for _, at := range []int{0, n / 2, n} {
				ids := make([]int32, 0, n+2)
				for j := 0; j < n; j++ {
					if j == at {
						ids = append(ids, pi)
					}
					ids = append(ids, int32(j))
				}
				if at == n {
					ids = append(ids, pi)
				}
				ids = append(ids, int32(n+1)) // coincident with the primary
				for cut := range 3 {
					checkPairColumns(t, g, pts, ws, pi, ids[:len(ids)-cut])
				}
				if n == 0 {
					checkPairColumns(t, g, pts, ws, pi, nil)
				}
			}
		}
	}
}

func TestPairColumnsEdges(t *testing.T) {
	// Separations placed on the comparisons themselves, the primary at the
	// origin so a neighbor's coordinate is its separation: r at RMax and RMin
	// exactly and one ulp either side (the float32 k-d tree hands over a
	// superset), r on every bin edge and one ulp below it, the bin >= NBins
	// clamp, and under a periodic box separations of exactly +-L/2, one ulp
	// beyond, and images several box sides out — each under every frame.
	const side = 100.0
	clamps := 0
	for _, g := range []*PairShell{
		shell(side, 0, 15, 10), shell(0, 0, 15, 10), shell(side, 3, 15, 12), shell(0, 0.5, 10, 7),
		shell(0, 25, 45, 12), shell(side, 0, 60, 9), shell(side, 7, 60, 13),
		shell(0, 0, 12.5, 7), shell(side, 2.5, 15, 7), // 7/12.5 rounds up: the ulp below RMax lands in bin 7
	} {
		var rs []float64
		around := func(r float64) {
			rs = append(rs, math.Nextafter(r, 0), r, math.Nextafter(r, math.Inf(1)))
		}
		around(g.RMax)
		if g.RMin > 0 {
			around(g.RMin)
		}
		for b := 1; b < int(g.NBins); b++ {
			around(g.RMin + float64(b)*(g.RMax-g.RMin)/float64(g.NBins))
			around(g.RMin + float64(b)/g.InvW)
		}
		for k := 0; k < 40; k++ { // the last few ulps below RMax: where the clamp lives
			rs = append(rs, g.RMax*(1-float64(k)*0x1p-53))
		}
		if h := g.Box.L / 2; h > 0 {
			around(h)
			rs = append(rs, h+side, h+2*side, 25+side, 25+3*side, 10+2*side)
		}
		pts := []geom.Vec3{{}}
		for _, r := range rs {
			pts = append(pts,
				geom.Vec3{X: r}, geom.Vec3{X: -r}, geom.Vec3{Y: r}, geom.Vec3{Y: -r}, geom.Vec3{Z: r}, geom.Vec3{Z: -r},
				geom.Vec3{X: r * 0.6, Z: -r * 0.8}, geom.Vec3{X: -r / 3, Y: r * 2 / 3, Z: r * 2 / 3})
		}
		ws := make([]float64, len(pts))
		ids := make([]int32, len(pts))
		for i := range pts {
			ws[i] = 1 + float64(i)/8
			ids[i] = int32(i)
		}
		clamps += checkPairColumns(t, g, pts, ws, 0, ids).clamps
	}
	if clamps == 0 {
		t.Fatal("no pair reached the bin >= NBins clamp: the edge set lost its case")
	}
}

func TestPairColumnsPanicsOnShortColumns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic: columns must hold the list rounded up to the lane width")
		}
	}()
	pts := make([]geom.Vec3, 9)
	out := PairCols{
		X: make([]float64, 16), Y: make([]float64, 16), Z: make([]float64, 16), W: make([]float64, 16),
		Bin: make([]int32, 9),
	}
	PairColumns(shell(0, 0, 1, 1), nil, pts, make([]float64, 9), 0, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8}, &out)
}
