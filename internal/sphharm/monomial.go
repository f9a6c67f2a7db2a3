// Package sphharm implements the spherical-harmonic machinery at the heart
// of the Galactos O(N^2) algorithm (Sec. 3.1 and 3.3 of the paper): the
// power-sum basis the pair kernel accumulates, associated Legendre
// polynomials, the multipole-accumulation kernel, and the conversion from
// accumulated sums to spherical-harmonic coefficients a_lm.
package sphharm

import "fmt"

// MonomialTable lays out the basis the kernel accumulates per radial bin:
// the real and imaginary parts of
//
//	S_{m,j} = sum over pairs of w (x + iy)^m z^j,  m + j <= L.
//
// The paper accumulates every x^k y^p z^q with k+p+q <= L (286 sums at
// L = 10), but every pair is a unit vector, and on the unit sphere those
// polynomials span only the (L+1)^2 harmonics up to degree L. Since
// Y_lm = N_lm tildeP_l^m(z) (x+iy)^m, the S_{m,j} are exactly the sums the
// a_lm need, and there are (L+1)^2 of them (121 at L = 10).
//
// Order: the L+1 sums of m = 0 (j ascending; they are real), then for each
// m = 1..L a Re row of L-m+1 sums followed by an Im row of the same length.
// The kernel, Reduce and YlmTable share this order.
type MonomialTable struct {
	L int
}

// NewMonomialTable returns the layout for maximum order l (l >= 0).
func NewMonomialTable(l int) *MonomialTable {
	if l < 0 {
		panic(fmt.Sprintf("sphharm: negative multipole order %d", l))
	}
	return &MonomialTable{L: l}
}

// Len returns the number of sums: (L+1)^2.
func (t *MonomialTable) Len() int { return (t.L + 1) * (t.L + 1) }

// rows returns the positions of the j = 0 sums of order m's Re and Im rows.
// The m = 0 row is real: im is -1 there.
func (t *MonomialTable) rows(m int) (re, im int) {
	if m == 0 {
		return 0, -1
	}
	// L+1 sums of m = 0, then 2(L-m'+1) for each m' < m.
	re = (t.L + 1) + (m-1)*(2*t.L+2-m)
	return re, re + t.L - m + 1
}

// evaluate writes the value of every basis function at the point (x, y, z)
// into out (length t.Len()), by the kernel's own recurrence: one complex
// running power of x+iy, each row multiplied through the powers of z.
func (t *MonomialTable) evaluate(x, y, z float64, out []float64) {
	if len(out) != t.Len() {
		panic("sphharm: evaluate output length mismatch")
	}
	c, s := 1.0, 0.0
	for m := 0; m <= t.L; m++ {
		if m > 0 {
			c, s = c*x-s*y, c*y+s*x
		}
		re, im := t.rows(m)
		zj := 1.0
		for j := 0; j <= t.L-m; j++ {
			out[re+j] = c * zj
			if m > 0 {
				out[im+j] = s * zj
			}
			zj *= z
		}
	}
}
