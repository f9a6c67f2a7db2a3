// The two end-to-end survey workloads of Sec. 6.1, routed through
// exec.Backend so they inherit cancellation, checkpoint/resume, and
// perfstat from the execution layer. Multi-run workloads scope each engine
// run with exec.Staged so checkpointed backends keep disjoint, independently
// resumable checkpoint sets per stage.

package scenario

import (
	"context"
	"fmt"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/estimator"
	"galactos/internal/exec"
	"galactos/internal/partition"
	"galactos/internal/stats"
)

// Survey is the output of the data+randoms survey-estimator workload.
type Survey struct {
	// DMR and Randoms are the two stage runs: the data-minus-randoms field
	// and the weight-scaled randoms normalization run.
	DMR, Randoms *exec.RunResult
	// Corrected is the edge-corrected result.
	Corrected *estimator.Corrected
}

// RunSurveyEstimator is the survey estimator of Sec. 6.1: build the D-R
// field, run it and the scaled randoms through b (stages "dmr" and
// "randoms"), and solve the mixing-matrix edge correction. The paper notes
// the randoms multiply the compute cost — the workload Galactos
// accelerates.
func RunSurveyEstimator(ctx context.Context, b exec.Backend, data, randoms *catalog.Catalog, cfg core.Config) (*Survey, error) {
	dmr, err := catalog.WithDataMinusRandom(data, randoms)
	if err != nil {
		return nil, err
	}
	nRun, err := exec.Run(ctx, exec.Staged(b, "dmr"), &exec.Job{
		Source: catalog.NewMemorySource(dmr),
		Config: cfg,
		Label:  "survey-dmr",
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: survey D-R stage: %w", err)
	}
	rRun, err := exec.Run(ctx, exec.Staged(b, "randoms"), &exec.Job{
		Source: catalog.NewMemorySource(estimator.ScaledRandoms(data, randoms)),
		Config: cfg,
		Label:  "survey-randoms",
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: survey randoms stage: %w", err)
	}
	corr, err := estimator.EdgeCorrect(nRun.Result, rRun.Result)
	if err != nil {
		return nil, err
	}
	return &Survey{DMR: nRun, Randoms: rRun, Corrected: corr}, nil
}

// Jackknife is the output of the spatial-resampling workload.
type Jackknife struct {
	// Regions is the number of jackknife regions; RegionCounts the exact
	// per-region galaxy counts from the partition splitter.
	Regions      int
	RegionCounts []int
	// Full is the statistic vector of the full-sample run; Samples the
	// leave-one-out vectors in region order; Mean their element-wise mean.
	Full    []float64
	Samples [][]float64
	Mean    []float64
	// Cov is the jackknife covariance of the statistic.
	Cov *stats.Matrix
	// FullRun holds the full-sample stage; LOORuns the leave-one-out
	// stages in region order (per-unit stats for resume assertions).
	FullRun *exec.RunResult
	LOORuns []*exec.RunResult
}

// statVector is the resampled statistic: the weight-normalized isotropic
// monopole diagonal, zeta_0(b, b) / sum w. Normalizing per unit primary
// weight makes leave-one-out samples comparable to the full sample.
func statVector(res *core.Result) []float64 {
	v := make([]float64, res.Bins.N)
	for b := range v {
		v[b] = res.IsoZeta(0, b, b) / res.SumWeight
	}
	return v
}

// RunJackknife runs the delete-one spatial jackknife of Sec. 6.1: split the
// catalog into regions with the partition splitter, run the full sample and
// every leave-one-out catalog through b (stages "full", "loo-000", ...),
// and feed the statistic vectors to the jackknife covariance. Each sample
// is a complete catalog run, so any backend — including checkpointed
// sharded runs — serves every stage.
func RunJackknife(ctx context.Context, b exec.Backend, cat *catalog.Catalog, regions int, cfg core.Config) (*Jackknife, error) {
	if regions < 2 {
		return nil, fmt.Errorf("scenario: need >= 2 jackknife regions, got %d", regions)
	}
	parts, err := partition.Split(cat, regions)
	if err != nil {
		return nil, err
	}
	n := cat.Len()
	// Region membership per galaxy; doubles as the exact-partition check
	// (no dropped or duplicated points at region boundaries).
	region := make([]int, n)
	for i := range region {
		region[i] = -1
	}
	counts := make([]int, len(parts))
	for p, part := range parts {
		counts[p] = len(part.Index)
		for _, idx := range part.Index {
			if region[idx] != -1 {
				return nil, fmt.Errorf("scenario: galaxy %d in regions %d and %d", idx, region[idx], p)
			}
			region[idx] = p
		}
	}
	for i, r := range region {
		if r == -1 {
			return nil, fmt.Errorf("scenario: galaxy %d in no region", i)
		}
	}

	out := &Jackknife{Regions: len(parts), RegionCounts: counts}
	full, err := exec.Run(ctx, exec.Staged(b, "full"), &exec.Job{
		Source: catalog.NewMemorySource(cat),
		Config: cfg,
		Label:  "jackknife-full",
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: jackknife full-sample stage: %w", err)
	}
	out.FullRun = full
	out.Full = statVector(full.Result)

	out.Samples = make([][]float64, len(parts))
	out.LOORuns = make([]*exec.RunResult, len(parts))
	for p := range parts {
		// Leave-one-out catalog in original galaxy order, so the engine
		// sees the same deterministic layout for every region.
		loo := &catalog.Catalog{Box: cat.Box, Galaxies: make([]catalog.Galaxy, 0, n-counts[p])}
		for i, g := range cat.Galaxies {
			if region[i] != p {
				loo.Galaxies = append(loo.Galaxies, g)
			}
		}
		run, err := exec.Run(ctx, exec.Staged(b, fmt.Sprintf("loo-%03d", p)), &exec.Job{
			Source: catalog.NewMemorySource(loo),
			Config: cfg,
			Label:  fmt.Sprintf("jackknife-loo-%03d", p),
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: jackknife region %d stage: %w", p, err)
		}
		out.LOORuns[p] = run
		out.Samples[p] = statVector(run.Result)
	}

	out.Mean, err = stats.Mean(out.Samples)
	if err != nil {
		return nil, err
	}
	out.Cov, err = stats.JackknifeCovariance(out.Samples)
	if err != nil {
		return nil, err
	}
	return out, nil
}
