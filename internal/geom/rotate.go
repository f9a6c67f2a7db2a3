package geom

import "math"

// Rotation is a 3x3 rotation matrix stored row-major. Applying it to a
// vector computes R*v.
type Rotation [3][3]float64

// Identity returns the identity rotation.
func Identity() Rotation {
	return Rotation{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
}

// Apply returns R*v.
func (r Rotation) Apply(v Vec3) Vec3 {
	return Vec3{
		float64(r[0][0]*v.X) + float64(r[0][1]*v.Y) + float64(r[0][2]*v.Z),
		float64(r[1][0]*v.X) + float64(r[1][1]*v.Y) + float64(r[1][2]*v.Z),
		float64(r[2][0]*v.X) + float64(r[2][1]*v.Y) + float64(r[2][2]*v.Z),
	}
}

// ApplyColumns applies the rotation in place to a structure-of-arrays batch
// of vectors (xs[i], ys[i], zs[i]). The engine's pair-tile pipeline rotates
// a primary's whole gathered neighborhood in one column sweep this way,
// instead of rotating pair by pair inside the binning loop.
func (r Rotation) ApplyColumns(xs, ys, zs []float64) {
	if len(ys) != len(xs) || len(zs) != len(xs) {
		panic("geom: ApplyColumns column length mismatch")
	}
	r00, r01, r02 := r[0][0], r[0][1], r[0][2]
	r10, r11, r12 := r[1][0], r[1][1], r[1][2]
	r20, r21, r22 := r[2][0], r[2][1], r[2][2]
	for i := range xs {
		x, y, z := xs[i], ys[i], zs[i]
		xs[i] = float64(r00*x) + float64(r01*y) + float64(r02*z)
		ys[i] = float64(r10*x) + float64(r11*y) + float64(r12*z)
		zs[i] = float64(r20*x) + float64(r21*y) + float64(r22*z)
	}
}

// Transpose returns the inverse rotation (rotations are orthogonal).
func (r Rotation) Transpose() Rotation {
	var t Rotation
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			t[i][j] = r[j][i]
		}
	}
	return t
}

// Compose returns the rotation r∘s (apply s first, then r).
func (r Rotation) Compose(s Rotation) Rotation {
	var c Rotation
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				c[i][j] += r[i][k] * s[k][j]
			}
		}
	}
	return c
}

// ToLineOfSight builds the rotation that maps the unit direction of p onto
// the +z axis. This implements the key step of the anisotropic algorithm
// (Fig. 2): "rotate the primary and all secondaries associated with that
// primary such that the primary lies on the z-axis of the line of sight."
//
// The rows of the returned matrix are an orthonormal basis (e1, e2, n) with
// n = p/|p|, so Apply(d) yields the separation's components transverse and
// parallel to the line of sight. The basis completion picks the seed axis
// least aligned with n, which keeps the construction stable for primaries
// near any coordinate axis. ToLineOfSight(zero vector) returns the identity.
func ToLineOfSight(p Vec3) Rotation {
	n := p.Norm()
	if n == 0 {
		return Identity()
	}
	nz := p.Scale(1 / n)

	// Seed: coordinate axis least aligned with nz.
	ax, ay, az := math.Abs(nz.X), math.Abs(nz.Y), math.Abs(nz.Z)
	var seed Vec3
	switch {
	case ax <= ay && ax <= az:
		seed = Vec3{1, 0, 0}
	case ay <= az:
		seed = Vec3{0, 1, 0}
	default:
		seed = Vec3{0, 0, 1}
	}

	e1 := seed.Sub(nz.Scale(seed.Dot(nz))).Normalized()
	e2 := nz.Cross(e1) // already unit length: |nz x e1| = 1

	return Rotation{
		{e1.X, e1.Y, e1.Z},
		{e2.X, e2.Y, e2.Z},
		{nz.X, nz.Y, nz.Z},
	}
}

// MidpointLOS builds the rotation onto the pair's bisector line of sight:
// the frame whose z axis is the unit bisector of the two (already
// normalized) galaxy direction vectors na and nb. The bisector of two unit
// vectors points along their angular midpoint, so this is the standard
// midpoint line-of-sight convention for wide-angle pair statistics.
//
// The construction is bitwise symmetric in its arguments: IEEE addition is
// commutative, so na + nb and nb + na are the same vector bit for bit, and
// ToLineOfSight of that vector is one deterministic function of its input —
// both endpoints of a pair derive the identical rotation, while the
// separation they rotate negates. Antipodal directions (na = -nb) have no
// bisector; ToLineOfSight maps the zero sum to the identity frame, keeping
// the function total and still swap-invariant.
func MidpointLOS(na, nb Vec3) Rotation {
	return ToLineOfSight(na.Add(nb))
}

// IsOrthonormal reports whether r is orthonormal to within tol, i.e.
// r * r^T = I component-wise.
func (r Rotation) IsOrthonormal(tol float64) bool {
	rt := r.Transpose()
	prod := r.Compose(rt)
	id := Identity()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(prod[i][j]-id[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

// Det returns the determinant of r; +1 for a proper rotation.
func (r Rotation) Det() float64 {
	return r[0][0]*(r[1][1]*r[2][2]-r[1][2]*r[2][1]) -
		r[0][1]*(r[1][0]*r[2][2]-r[1][2]*r[2][0]) +
		r[0][2]*(r[1][0]*r[2][1]-r[1][1]*r[2][0])
}
