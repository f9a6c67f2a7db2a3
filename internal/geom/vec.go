// Package geom provides the small geometric substrate used throughout
// Galactos: 3-vectors, axis-aligned boxes, periodic minimal-image
// separations, and the line-of-sight rotation that is the key step of the
// anisotropic 3PCF algorithm (Sec. 3.1 of the paper).
package geom

import "math"

// Vec3 is a point or separation vector in 3-D space. Coordinates are in the
// survey's length unit (Mpc/h throughout the paper).
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 {
	return Vec3{float64(s * v.X), float64(s * v.Y), float64(s * v.Z)}
}

// Dot returns the inner product v . w.
func (v Vec3) Dot(w Vec3) float64 {
	return float64(v.X*w.X) + float64(v.Y*w.Y) + float64(v.Z*w.Z)
}

// Cross returns the cross product v x w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		float64(v.Y*w.Z) - float64(v.Z*w.Y),
		float64(v.Z*w.X) - float64(v.X*w.Z),
		float64(v.X*w.Y) - float64(v.Y*w.X),
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Normalized returns v scaled to unit length. The zero vector is returned
// unchanged (callers in the 3PCF pipeline exclude zero separations before
// normalizing; this keeps the function total).
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Box is an axis-aligned bounding box.
type Box struct {
	Min, Max Vec3
}

// Contains reports whether p lies inside the half-open box [Min, Max).
func (b Box) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X < b.Max.X &&
		p.Y >= b.Min.Y && p.Y < b.Max.Y &&
		p.Z >= b.Min.Z && p.Z < b.Max.Z
}

// Extent returns the side lengths of the box.
func (b Box) Extent() Vec3 { return b.Max.Sub(b.Min) }

// WidestAxis returns the axis (0=x, 1=y, 2=z) along which the box is widest.
// The k-d partitioning splits along this axis.
func (b Box) WidestAxis() int {
	e := b.Extent()
	switch {
	case e.X >= e.Y && e.X >= e.Z:
		return 0
	case e.Y >= e.Z:
		return 1
	default:
		return 2
	}
}

// Component returns the axis-th coordinate of v (0=x, 1=y, 2=z).
func (v Vec3) Component(axis int) float64 {
	switch axis {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// WithComponent returns a copy of v with the axis-th coordinate set to c.
func (v Vec3) WithComponent(axis int, c float64) Vec3 {
	switch axis {
	case 0:
		v.X = c
	case 1:
		v.Y = c
	default:
		v.Z = c
	}
	return v
}
