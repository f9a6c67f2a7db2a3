package sphharm

import (
	"math"

	"galactos/internal/geom"
)

// Pass 1 of the engine's tile assembly (Sec. 3.3.2: distances and binning
// over the gathered list, ahead of the multipole kernel): one sweep over a
// primary's whole neighbor list that turns ids into unit separations, pair
// weights and radial bins, dropping the pairs outside the shell.

// PairShell is what cuts a neighbor list into pairs: the box whose minimal
// image a separation takes (open when Box.L <= 0) and the radial binning,
// bin = (r - RMin) * InvW clamped to NBins-1 exactly as hist.Binning.Index.
// The vector body reads the fields by offset.
type PairShell struct {
	Box        geom.Periodic
	RMin, RMax float64
	InvW       float64
	NBins      int32
}

// PairCols receives the surviving pairs of one PairColumns call as columns,
// in list order. Every column must hold the list length rounded up to a
// multiple of Lanes — the vector body stores whole registers, so up to
// Lanes-1 slots past the survivors are scratch. ID is optional (nil skips
// it): the neighbor ids of the survivors, which a per-pair line of sight
// needs. The vector bodies read the fields by offset.
type PairCols struct {
	X, Y, Z, W []float64
	Bin, ID    []int32
}

// PairColumns walks ids, the neighbor list of primary pi, and for each
// neighbor j forms the minimal-image separation pts[j] - pts[pi], its length
// r and its bin; the pairs with j != pi, r != 0 and RMin <= r < RMax are
// written compacted to out — separation / r, ws[j], bin (and j) — and their
// count is returned. A non-nil frame (the primary's line-of-sight rotation)
// is applied to each kept unit separation before it is stored, each
// component (f0*x + f1*y) + f2*z with every product rounded (geom.Rotation's
// Apply). Every id must index pts and ws. Both bodies perform the same
// float64 operations in the same order per pair (no fused multiply-adds), so
// the columns are bit-identical under either dispatch tag.
func PairColumns(g *PairShell, frame *geom.Rotation, pts []geom.Vec3, ws []float64, pi int32, ids []int32, out *PairCols) int {
	need := (len(ids) + Lanes - 1) &^ (Lanes - 1)
	if len(out.X) < need || len(out.Y) < need || len(out.Z) < need || len(out.W) < need ||
		len(out.Bin) < need || (out.ID != nil && len(out.ID) < need) {
		panic("sphharm: PairColumns output columns shorter than the list")
	}
	if len(ids) == 0 {
		return 0
	}
	return pairColumns(g, frame, pts, ws, pi, ids, out)
}

// pairColumnsGeneric is the pure-Go body of PairColumns. The explicit
// float64 conversions round each product before it is added (here and in
// the frame's Apply), which is what keeps the compiler from fusing them at
// GOAMD64=v3 and on arm64.
func pairColumnsGeneric(g *PairShell, frame *geom.Rotation, pts []geom.Vec3, ws []float64, pi int32, ids []int32, out *PairCols) int {
	p := pts[pi]
	n := 0
	for _, j := range ids {
		if j == pi {
			continue
		}
		sep := g.Box.Separation(p, pts[j])
		r2 := float64(sep.X*sep.X) + float64(sep.Y*sep.Y) + float64(sep.Z*sep.Z)
		if r2 == 0 {
			continue // coincident tracer: no direction, not a triangle side
		}
		r := math.Sqrt(r2)
		if !(r >= g.RMin && r < g.RMax) {
			continue // outside the shell, or not a number
		}
		bin := int32((r - g.RMin) * g.InvW)
		if bin >= g.NBins { // floating-point edge, as hist.Binning.Index
			bin = g.NBins - 1
		}
		inv := 1 / r
		u := geom.Vec3{X: sep.X * inv, Y: sep.Y * inv, Z: sep.Z * inv}
		if frame != nil {
			u = frame.Apply(u)
		}
		out.X[n] = u.X
		out.Y[n] = u.Y
		out.Z[n] = u.Z
		out.W[n] = ws[j]
		out.Bin[n] = bin
		if out.ID != nil {
			out.ID[n] = j
		}
		n++
	}
	return n
}
