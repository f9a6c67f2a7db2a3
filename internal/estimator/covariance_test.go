package estimator

import (
	"math"
	"math/rand"
	"testing"
)

func TestMean(t *testing.T) {
	m, err := Mean([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 3 || m[1] != 4 {
		t.Errorf("mean = %v", m)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := Mean([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged samples accepted")
	}
}

func TestJackknifeCovarianceKnown(t *testing.T) {
	// Two perfectly anticorrelated coordinates.
	samples := [][]float64{{1, -1}, {-1, 1}, {2, -2}, {-2, 2}}
	c, err := JackknifeCovariance(samples)
	if err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) <= 0 || c.At(1, 1) <= 0 {
		t.Error("variances must be positive")
	}
	if math.Abs(c.At(0, 1)-c.At(1, 0)) > 1e-12 {
		t.Error("covariance not symmetric")
	}
	if c.At(0, 1) >= 0 {
		t.Error("anticorrelated data should give negative covariance")
	}
	corr, err := c.CorrelationMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(corr.At(0, 1)+1) > 1e-9 {
		t.Errorf("correlation = %v, want -1", corr.At(0, 1))
	}
}

func TestJackknifeNeedsTwoSamples(t *testing.T) {
	if _, err := JackknifeCovariance([][]float64{{1}}); err == nil {
		t.Error("single sample accepted")
	}
}

func TestMatrixInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 8, 20} {
		// Random diagonally dominant matrix: always invertible.
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
			m.Set(i, i, m.At(i, i)+float64(n)+1)
		}
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		prod, err := m.Mul(inv)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(prod.At(i, i)-1) > 1e-9 {
				t.Fatalf("n=%d: (A A^-1)[%d][%d] = %v", n, i, i, prod.At(i, i))
			}
		}
		if off := prod.MaxAbsOffDiagonal(); off > 1e-9 {
			t.Fatalf("n=%d: off-diagonal %v", n, off)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4) // rank 1
	if _, err := m.Inverse(); err == nil {
		t.Error("singular matrix inverted")
	}
}

func TestInverseNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal: fails without partial pivoting.
	m := NewMatrix(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	// Inverse of the swap matrix is itself.
	if math.Abs(inv.At(0, 1)-1) > 1e-12 || math.Abs(inv.At(1, 0)-1) > 1e-12 {
		t.Errorf("swap inverse wrong: %v", inv.Data)
	}
}

func TestConditionEstimate(t *testing.T) {
	id := NewMatrix(3)
	for i := 0; i < 3; i++ {
		id.Set(i, i, 1)
	}
	if c := id.ConditionEstimate(); math.Abs(c-1) > 1e-12 {
		t.Errorf("identity condition = %v", c)
	}
	bad := NewMatrix(2)
	bad.Set(0, 0, 1)
	bad.Set(1, 1, 1e-12)
	if c := bad.ConditionEstimate(); c < 1e11 {
		t.Errorf("ill-conditioned matrix estimate = %v", c)
	}
	sing := NewMatrix(2)
	sing.Set(0, 0, 1)
	if c := sing.ConditionEstimate(); !math.IsInf(c, 1) {
		t.Errorf("singular condition = %v, want +Inf", c)
	}
}

func TestCorrelationMatrixRejectsBadVariance(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(1, 1, -1)
	if _, err := m.CorrelationMatrix(); err == nil {
		t.Error("negative variance accepted")
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := NewMatrix(2)
	b := NewMatrix(3)
	if _, err := a.Mul(b); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestFewSamplesSingularCovariance(t *testing.T) {
	// The paper's warning: with fewer samples than dimensions the
	// covariance is singular and cannot be inverted.
	rng := rand.New(rand.NewSource(5))
	const dim = 10
	samples := make([][]float64, 4) // 4 samples, 10 dims -> rank <= 3
	for i := range samples {
		samples[i] = make([]float64, dim)
		for j := range samples[i] {
			samples[i][j] = rng.NormFloat64()
		}
	}
	c, err := JackknifeCovariance(samples)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Inverse(); err == nil {
		t.Error("rank-deficient covariance inverted without error")
	}
}

func TestSymmetryError(t *testing.T) {
	m := NewMatrix(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(i+j))
		}
	}
	if e := m.SymmetryError(); e != 0 {
		t.Errorf("symmetric matrix reports error %v", e)
	}
	m.Set(0, 2, m.At(0, 2)+0.25)
	if e := m.SymmetryError(); e != 0.25 {
		t.Errorf("symmetry error = %v, want 0.25", e)
	}
}

func TestIsPSD(t *testing.T) {
	// A Gram matrix A^T A is PSD by construction.
	rng := rand.New(rand.NewSource(17))
	const n, k = 5, 8
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.NormFloat64()
		}
	}
	gram := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for r := 0; r < k; r++ {
				s += a[r][i] * a[r][j]
			}
			gram.Set(i, j, s)
		}
	}
	if !gram.IsPSD(1e-12) {
		t.Error("Gram matrix rejected")
	}

	// Rank-deficient PSD: outer product of one vector (rank 1).
	outer := NewMatrix(3)
	v := []float64{1, -2, 0.5}
	for i := range v {
		for j := range v {
			outer.Set(i, j, v[i]*v[j])
		}
	}
	if !outer.IsPSD(1e-12) {
		t.Error("rank-1 outer product rejected")
	}

	// Indefinite: eigenvalues -1 and 3.
	indef := NewMatrix(2)
	indef.Set(0, 0, 1)
	indef.Set(0, 1, 2)
	indef.Set(1, 0, 2)
	indef.Set(1, 1, 1)
	if indef.IsPSD(1e-10) {
		t.Error("indefinite matrix accepted")
	}

	// Negative definite.
	neg := NewMatrix(2)
	neg.Set(0, 0, -1)
	neg.Set(1, 1, -0.5)
	if neg.IsPSD(1e-10) {
		t.Error("negative-definite matrix accepted")
	}

	// Zero matrix is (trivially) PSD.
	if !NewMatrix(4).IsPSD(1e-10) {
		t.Error("zero matrix rejected")
	}
}
