// Jackknife covariance and the dense linear algebra (inversion, condition
// diagnostics) needed to weight data when fitting models.

package estimator

import (
	"fmt"
	"math"
)

// Mean returns the element-wise mean of the sample vectors.
func Mean(samples [][]float64) ([]float64, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("estimator: no samples")
	}
	d := len(samples[0])
	mean := make([]float64, d)
	for _, s := range samples {
		if len(s) != d {
			return nil, fmt.Errorf("estimator: ragged samples (%d vs %d)", len(s), d)
		}
		for i, v := range s {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(samples))
	}
	return mean, nil
}

// JackknifeCovariance estimates the covariance matrix of a statistic from n
// leave-one-out or per-subvolume samples:
//
//	C_ij = (n-1)/n * sum_k (x_k,i - mean_i)(x_k,j - mean_j)
//
// The (n-1)/n prefactor is the jackknife convention (delete-one samples are
// strongly correlated). Returns the d x d matrix row-major.
func JackknifeCovariance(samples [][]float64) (*Matrix, error) {
	n := len(samples)
	if n < 2 {
		return nil, fmt.Errorf("estimator: need at least 2 samples, got %d", n)
	}
	mean, err := Mean(samples)
	if err != nil {
		return nil, err
	}
	d := len(mean)
	c := NewMatrix(d)
	for _, s := range samples {
		for i := 0; i < d; i++ {
			di := s[i] - mean[i]
			for j := 0; j < d; j++ {
				c.Data[i*d+j] += float64(di * (s[j] - mean[j]))
			}
		}
	}
	scale := float64(n-1) / float64(n)
	for i := range c.Data {
		c.Data[i] *= scale
	}
	return c, nil
}

// Matrix is a dense square matrix, row-major.
type Matrix struct {
	N    int
	Data []float64
}

// NewMatrix returns a zero n x n matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Mul returns m * o.
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.N != o.N {
		return nil, fmt.Errorf("estimator: dimension mismatch %d vs %d", m.N, o.N)
	}
	n := m.N
	out := NewMatrix(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a := m.Data[i*n+k]
			if a == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += a * o.Data[k*n+j]
			}
		}
	}
	return out, nil
}

// Inverse returns the matrix inverse by Gauss–Jordan elimination with
// partial pivoting. It fails on (numerically) singular input — exactly the
// failure mode the paper warns about when too few mocks produce a
// non-invertible covariance ("the inverse can be highly sensitive to random
// scatter introduced if one does not use a large number of mocks").
func (m *Matrix) Inverse() (*Matrix, error) {
	n := m.N
	a := make([]float64, len(m.Data))
	copy(a, m.Data)
	// Numerical singularity threshold relative to the matrix scale.
	scale := 0.0
	for _, v := range a {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	tol := scale * float64(n) * 1e-13
	inv := NewMatrix(n)
	for i := 0; i < n; i++ {
		inv.Data[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best <= tol || math.IsNaN(best) {
			return nil, fmt.Errorf("estimator: singular matrix at column %d (pivot %g, scale %g)", col, best, scale)
		}
		if pivot != col {
			swapRows(a, n, pivot, col)
			swapRows(inv.Data, n, pivot, col)
		}
		p := a[col*n+col]
		invP := 1 / p
		for j := 0; j < n; j++ {
			a[col*n+j] *= invP
			inv.Data[col*n+j] *= invP
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a[r*n+j] -= float64(f * a[col*n+j])
				inv.Data[r*n+j] -= float64(f * inv.Data[col*n+j])
			}
		}
	}
	return inv, nil
}

// ConditionEstimate returns a cheap condition-number proxy: the ratio of the
// largest to smallest diagonal magnitude after symmetrization-free Gaussian
// elimination (max |pivot| / min |pivot|). Infinite for singular matrices.
func (m *Matrix) ConditionEstimate() float64 {
	n := m.N
	a := make([]float64, len(m.Data))
	copy(a, m.Data)
	minP, maxP := math.Inf(1), 0.0
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return math.Inf(1)
		}
		if pivot != col {
			swapRows(a, n, pivot, col)
		}
		if best < minP {
			minP = best
		}
		if best > maxP {
			maxP = best
		}
		p := a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] / p
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a[r*n+j] -= float64(f * a[col*n+j])
			}
		}
	}
	return maxP / minP
}

// CorrelationMatrix converts a covariance matrix to a correlation matrix
// r_ij = C_ij / sqrt(C_ii C_jj).
func (m *Matrix) CorrelationMatrix() (*Matrix, error) {
	n := m.N
	out := NewMatrix(n)
	for i := 0; i < n; i++ {
		if m.At(i, i) <= 0 {
			return nil, fmt.Errorf("estimator: non-positive variance at %d", i)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Set(i, j, m.At(i, j)/math.Sqrt(m.At(i, i)*m.At(j, j)))
		}
	}
	return out, nil
}

// SymmetryError returns the largest |m_ij - m_ji| — zero for an exactly
// symmetric matrix (jackknife covariance accumulates symmetric products, so
// its error is exactly zero, a scenario invariant).
func (m *Matrix) SymmetryError() float64 {
	worst := 0.0
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			if v := math.Abs(m.At(i, j) - m.At(j, i)); v > worst {
				worst = v
			}
		}
	}
	return worst
}

// IsPSD reports whether the symmetrized matrix is positive semi-definite up
// to a relative tolerance: the Cholesky factorization of C + tol*scale*I
// must succeed, where scale is the largest diagonal magnitude. tol absorbs
// the rounding of the covariance accumulation; a genuinely indefinite
// matrix (a negative eigenvalue of order scale) still fails.
func (m *Matrix) IsPSD(tol float64) bool {
	n := m.N
	scale := 0.0
	for i := 0; i < n; i++ {
		if v := math.Abs(m.At(i, i)); v > scale {
			scale = v
		}
	}
	if scale == 0 {
		scale = 1
	}
	shift := float64(tol * scale)
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = 0.5 * (m.At(i, j) + m.At(j, i))
		}
		a[i*n+i] += shift
	}
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= float64(a[j*n+k] * a[j*n+k])
		}
		if d < 0 || math.IsNaN(d) {
			return false
		}
		ld := math.Sqrt(d)
		a[j*n+j] = ld
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= float64(a[i*n+k] * a[j*n+k])
			}
			if ld == 0 {
				// Rank-deficient pivot: PSD only if the rest of the
				// column is negligible too.
				if math.Abs(s) > float64(shift*float64(n))+1e-300 {
					return false
				}
				a[i*n+j] = 0
				continue
			}
			a[i*n+j] = s / ld
		}
	}
	return true
}

func swapRows(a []float64, n, r1, r2 int) {
	for j := 0; j < n; j++ {
		a[r1*n+j], a[r2*n+j] = a[r2*n+j], a[r1*n+j]
	}
}

// MaxAbsOffDiagonal returns the largest |element| off the diagonal — a
// convergence diagnostic for A * A^-1 = I checks.
func (m *Matrix) MaxAbsOffDiagonal() float64 {
	max := 0.0
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if i == j {
				continue
			}
			if v := math.Abs(m.At(i, j)); v > max {
				max = v
			}
		}
	}
	return max
}
