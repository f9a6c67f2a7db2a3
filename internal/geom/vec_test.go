package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEqual(a, b Vec3, tol float64) bool {
	return almostEqual(a.X, b.X, tol) && almostEqual(a.Y, b.Y, tol) && almostEqual(a.Z, b.Z, tol)
}

func TestVecArithmetic(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{-4, 5, 0.5}
	if got := a.Add(b); got != (Vec3{-3, 7, 3.5}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{5, -3, 2.5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != -4+10+1.5 {
		t.Errorf("Dot = %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clamp(ax), clamp(ay), clamp(az)}
		b := Vec3{clamp(bx), clamp(by), clamp(bz)}
		c := a.Cross(b)
		scale := a.Norm()*b.Norm() + 1
		return almostEqual(c.Dot(a), 0, 1e-9*scale*scale) && almostEqual(c.Dot(b), 0, 1e-9*scale*scale)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clamp maps arbitrary quick-generated floats into a sane finite range.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e3)
}

func TestCrossRightHanded(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	z := Vec3{0, 0, 1}
	if got := x.Cross(y); !vecAlmostEqual(got, z, 1e-15) {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(z); !vecAlmostEqual(got, x, 1e-15) {
		t.Errorf("y cross z = %v, want x", got)
	}
	if got := z.Cross(x); !vecAlmostEqual(got, y, 1e-15) {
		t.Errorf("z cross x = %v, want y", got)
	}
}

func TestNormalized(t *testing.T) {
	v := Vec3{3, 4, 0}
	n := v.Normalized()
	if !almostEqual(n.Norm(), 1, 1e-15) {
		t.Errorf("norm of normalized = %v", n.Norm())
	}
	if !vecAlmostEqual(n, Vec3{0.6, 0.8, 0}, 1e-15) {
		t.Errorf("normalized = %v", n)
	}
	zero := Vec3{}
	if zero.Normalized() != zero {
		t.Error("normalizing zero vector should return zero")
	}
}

func TestNorm2(t *testing.T) {
	v := Vec3{1, 2, 2}
	if v.Norm2() != 9 {
		t.Errorf("Norm2 = %v, want 9", v.Norm2())
	}
	if v.Norm() != 3 {
		t.Errorf("Norm = %v, want 3", v.Norm())
	}
}

func TestBoxContains(t *testing.T) {
	b := Box{Min: Vec3{0, 0, 0}, Max: Vec3{10, 20, 30}}
	cases := []struct {
		p    Vec3
		want bool
	}{
		{Vec3{5, 5, 5}, true},
		{Vec3{0, 0, 0}, true},   // closed at Min
		{Vec3{10, 5, 5}, false}, // open at Max
		{Vec3{9.999, 19.999, 29.99}, true},
		{Vec3{-0.001, 5, 5}, false},
	}
	for _, c := range cases {
		if got := b.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBoxWidestAxis(t *testing.T) {
	cases := []struct {
		b    Box
		want int
	}{
		{Box{Vec3{0, 0, 0}, Vec3{3, 2, 1}}, 0},
		{Box{Vec3{0, 0, 0}, Vec3{1, 3, 2}}, 1},
		{Box{Vec3{0, 0, 0}, Vec3{1, 2, 3}}, 2},
		{Box{Vec3{0, 0, 0}, Vec3{2, 2, 2}}, 0}, // ties resolve to x first
	}
	for _, c := range cases {
		if got := c.b.WidestAxis(); got != c.want {
			t.Errorf("WidestAxis(%v) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestBoxVolumeExtent(t *testing.T) {
	b := Box{Vec3{1, 1, 1}, Vec3{3, 4, 6}}
	if got := b.Extent(); got != (Vec3{2, 3, 5}) {
		t.Errorf("Extent = %v", got)
	}
}

func TestComponentRoundTrip(t *testing.T) {
	v := Vec3{1, 2, 3}
	for axis := 0; axis < 3; axis++ {
		w := v.WithComponent(axis, 9)
		if w.Component(axis) != 9 {
			t.Errorf("axis %d: component after set = %v", axis, w.Component(axis))
		}
		// other components untouched
		for other := 0; other < 3; other++ {
			if other != axis && w.Component(other) != v.Component(other) {
				t.Errorf("axis %d modified other axis %d", axis, other)
			}
		}
	}
}

func TestPeriodicWrap(t *testing.T) {
	pb := Periodic{L: 10}
	cases := []struct {
		in, want Vec3
	}{
		{Vec3{5, 5, 5}, Vec3{5, 5, 5}},
		{Vec3{-1, 11, 25}, Vec3{9, 1, 5}},
		{Vec3{10, 0, -10}, Vec3{0, 0, 0}},
	}
	for _, c := range cases {
		if got := pb.Wrap(c.in); !vecAlmostEqual(got, c.want, 1e-12) {
			t.Errorf("Wrap(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPeriodicWrapOpen(t *testing.T) {
	pb := Periodic{}
	p := Vec3{-5, 100, 3}
	if pb.Wrap(p) != p {
		t.Error("open-boundary Wrap must be identity")
	}
}

func TestPeriodicSeparation(t *testing.T) {
	pb := Periodic{L: 100}
	a := Vec3{1, 1, 1}
	b := Vec3{99, 1, 1}
	sep := pb.Separation(a, b)
	if !vecAlmostEqual(sep, Vec3{-2, 0, 0}, 1e-12) {
		t.Errorf("Separation = %v, want (-2,0,0)", sep)
	}
	if d := pb.Distance(a, b); !almostEqual(d, 2, 1e-12) {
		t.Errorf("Distance = %v, want 2", d)
	}
}

func TestPeriodicSeparationProperty(t *testing.T) {
	// |minimal image separation| <= L*sqrt(3)/2 and antisymmetric.
	pb := Periodic{L: 50}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := Vec3{rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50}
		b := Vec3{rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50}
		s := pb.Separation(a, b)
		if s.Norm() > 50*math.Sqrt(3)/2+1e-9 {
			t.Fatalf("separation %v too long", s)
		}
		if !vecAlmostEqual(s, pb.Separation(b, a).Scale(-1), 1e-9) {
			t.Fatalf("separation not antisymmetric: %v vs %v", s, pb.Separation(b, a))
		}
	}
}

func TestPeriodicImages(t *testing.T) {
	if n := len((Periodic{}).Images(10)); n != 1 {
		t.Errorf("open boundaries: %d images, want 1", n)
	}
	if n := len((Periodic{L: 100}).Images(10)); n != 27 {
		t.Errorf("periodic: %d images, want 27", n)
	}
}

func TestToLineOfSightMapsPrimaryToZ(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		p := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if p.Norm() < 1e-6 {
			continue
		}
		r := ToLineOfSight(p)
		got := r.Apply(p)
		want := Vec3{0, 0, p.Norm()}
		if !vecAlmostEqual(got, want, 1e-9*p.Norm()) {
			t.Fatalf("R*p = %v, want %v (p=%v)", got, want, p)
		}
	}
}

func TestToLineOfSightOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		r := ToLineOfSight(p)
		if !r.IsOrthonormal(1e-12) {
			t.Fatalf("rotation not orthonormal for p=%v", p)
		}
		if !almostEqual(r.Det(), 1, 1e-12) {
			t.Fatalf("det = %v, want +1 (p=%v)", r.Det(), p)
		}
	}
}

func TestToLineOfSightPreservesLengthsAndAngles(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		p := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		a := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		b := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		r := ToLineOfSight(p)
		ra, rb := r.Apply(a), r.Apply(b)
		if !almostEqual(ra.Norm(), a.Norm(), 1e-9*(1+a.Norm())) {
			t.Fatalf("length not preserved")
		}
		if !almostEqual(ra.Dot(rb), a.Dot(b), 1e-9*(1+a.Norm()*b.Norm())) {
			t.Fatalf("angle not preserved")
		}
	}
}

func TestToLineOfSightNearAxes(t *testing.T) {
	// Stability for primaries aligned (and nearly aligned) with each axis.
	dirs := []Vec3{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
		{-1, 0, 0}, {0, -1, 0}, {0, 0, -1},
		{1e-14, 0, 1}, {0, 1e-14, -1},
	}
	for _, d := range dirs {
		r := ToLineOfSight(d)
		if !r.IsOrthonormal(1e-12) {
			t.Errorf("not orthonormal for %v", d)
		}
		got := r.Apply(d)
		if !vecAlmostEqual(got, Vec3{0, 0, d.Norm()}, 1e-12) {
			t.Errorf("R*d = %v for d=%v", got, d)
		}
	}
}

func TestToLineOfSightZeroVector(t *testing.T) {
	if ToLineOfSight(Vec3{}) != Identity() {
		t.Error("zero vector should map to identity")
	}
}

func TestRotationComposeTranspose(t *testing.T) {
	r := ToLineOfSight(Vec3{1, 2, 3})
	id := r.Compose(r.Transpose())
	if !id.IsOrthonormal(1e-12) {
		t.Error("R * R^T not orthonormal")
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(id[i][j], want, 1e-12) {
				t.Fatalf("R*R^T[%d][%d] = %v", i, j, id[i][j])
			}
		}
	}
}

func TestRotationApplyIdentity(t *testing.T) {
	v := Vec3{3, -1, 7}
	if Identity().Apply(v) != v {
		t.Error("identity rotation changed vector")
	}
}
