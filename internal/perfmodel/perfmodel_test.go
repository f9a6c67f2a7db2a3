package perfmodel

import (
	"math"
	"testing"
	"time"
)

func TestPaperPairCountReproduced(t *testing.T) {
	// 1.951e9 galaxies at 0.0723 (Mpc/h)^-3 with Rmax = 200 and the
	// measured clustering boost must give the paper's 8.17e15 pairs.
	density := 1.951e9 / (3000.0 * 3000.0 * 3000.0)
	got := EstimatePairsOuterRim(1951000000, density, 200)
	if math.Abs(got-PaperFullSystemPairs)/PaperFullSystemPairs > 0.01 {
		t.Errorf("estimated pairs %.3e, want %.3e", got, PaperFullSystemPairs)
	}
}

func TestSustainedRateIdentities(t *testing.T) {
	// The paper's 5.06 PF (mixed) and 4.65 PF (double) follow from
	// pairs x 609 / time; our accounting must reproduce them.
	mixed := PF(SustainedFlops(PaperFullSystemPairs, PaperFlopsPerPairTotal, PaperMixedTimeSec))
	if math.Abs(mixed-5.06) > 0.01 {
		t.Errorf("mixed sustained = %v PF, want 5.06", mixed)
	}
	double := PF(SustainedFlops(PaperFullSystemPairs, PaperFlopsPerPairTotal, PaperDoubleTimeSec))
	if math.Abs(double-4.65) > 0.01 {
		t.Errorf("double sustained = %v PF, want 4.65", double)
	}
}

func TestFullSystemAccountingMatchesPaper(t *testing.T) {
	for _, row := range FullSystemAccounting() {
		rel := math.Abs(row.Predicted-row.Paper) / math.Abs(row.Paper)
		if rel > 0.06 {
			t.Errorf("%s: predicted %v, paper %v (rel err %.3f)", row.Label, row.Predicted, row.Paper, rel)
		}
	}
}

func TestKernelFractionSanityCheck(t *testing.T) {
	// Sec. 5.4's explicit sanity check: the node with 7.06e11 pairs at
	// 1.017 TF spends ~61% of its 644.2 s in the multipole kernel.
	frac := PaperMinNodePairs * PaperFlopsPerPairKernel / (PaperNodeKernelGF * 1e9) / 644.2
	if math.Abs(frac-0.61) > 0.015 {
		t.Errorf("kernel fraction %v, want ~0.61", frac)
	}
}

func TestEstimatePairsUniform(t *testing.T) {
	// 1000 galaxies, density such that each sees exactly 10 neighbors.
	rmax := 10.0
	vol := 4.0 / 3.0 * math.Pi * rmax * rmax * rmax
	density := 10 / vol
	got := EstimatePairsUniform(1000, density, rmax)
	if math.Abs(got-10000) > 1e-6 {
		t.Errorf("pairs = %v, want 10000", got)
	}
}

func TestNodeTime(t *testing.T) {
	cal := Calibration{PairsPerSec: 1e6, TreeBuildPerGalaxy: time.Microsecond}
	got := cal.NodeTime(2e6, 1000)
	want := 2*time.Second + time.Millisecond
	if got != want {
		t.Errorf("NodeTime = %v, want %v", got, want)
	}
	if (Calibration{}).NodeTime(1e6, 10) != 0 {
		t.Error("zero calibration should return 0")
	}
}

func TestFullSystemEstimate(t *testing.T) {
	cal := Calibration{PairsPerSec: 5e6, TreeBuildPerGalaxy: 100 * time.Nanosecond, Imbalance: 1.1}
	density := 0.0723
	d, err := FullSystemEstimate(1951000000, density, 200, 9636, cal)
	if err != nil {
		t.Fatal(err)
	}
	// Per-node pairs ~ 8.17e15/9636*1.1 ~ 9.3e11; at 5e6 pairs/s this node
	// would take ~1.9e5 s. The point is the shape, not the magnitude.
	if d <= 0 {
		t.Error("estimate not positive")
	}
	perNodePairs := EstimatePairsOuterRim(1951000000, density, 200) / 9636 * 1.1
	wantSec := perNodePairs / 5e6
	if math.Abs(d.Seconds()-wantSec)/wantSec > 0.05 {
		t.Errorf("estimate %v s, want ~%v s", d.Seconds(), wantSec)
	}
	if _, err := FullSystemEstimate(100, density, 200, 0, cal); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestUnitConversions(t *testing.T) {
	if PF(5.06e15) != 5.06 {
		t.Error("PF conversion")
	}
	if GF(1.017e12) != 1017 {
		t.Error("GF conversion")
	}
	if SustainedFlops(10, 10, 0) != 0 {
		t.Error("zero time should give zero rate")
	}
}
