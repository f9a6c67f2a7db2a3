// The two end-to-end survey workloads of Sec. 6.1, run as exec.Requests so
// they inherit cancellation, checkpoint/resume, and the run record from the
// execution layer. Each engine run of a workload is one stage of a template
// request (stage), so checkpointed backends keep disjoint, independently
// resumable checkpoint sets per stage.

package scenario

import (
	"context"
	"fmt"
	"path/filepath"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/estimator"
	"galactos/internal/exec"
	"galactos/internal/partition"
	"galactos/internal/stats"
)

// stage returns the template request tmpl running cat as the named stage of
// a multi-run workload: a checkpointed backend gets the per-stage
// subdirectory CheckpointDir/name, so the stages resume independently.
func stage(tmpl exec.Request, name string, cat *catalog.Catalog) exec.Request {
	tmpl.Catalog = cat
	if tmpl.Backend.CheckpointDir != "" {
		tmpl.Backend.CheckpointDir = filepath.Join(tmpl.Backend.CheckpointDir, name)
	}
	return tmpl
}

// checkTemplate refuses a template that already names a catalog: the
// workload supplies every stage's catalog itself.
func checkTemplate(tmpl exec.Request) error {
	if tmpl.Source != nil || tmpl.Catalog != nil || tmpl.Path != "" {
		return fmt.Errorf("scenario: the template request names a catalog; the workload supplies its own")
	}
	return nil
}

// Survey is the output of the data+randoms survey-estimator workload.
type Survey struct {
	// DMR and Randoms are the two stage runs: the data-minus-randoms field
	// and the weight-scaled randoms normalization run.
	DMR, Randoms *exec.RunResult
	// Corrected is the edge-corrected result.
	Corrected *estimator.Corrected
}

// RunSurveyEstimator is the survey estimator of Sec. 6.1: build the D-R
// field, run it and the scaled randoms as stages "dmr" and "randoms" of the
// template request tmpl, and solve the mixing-matrix edge correction. The
// paper notes the randoms multiply the compute cost — the workload Galactos
// accelerates.
func RunSurveyEstimator(ctx context.Context, tmpl exec.Request, data, randoms *catalog.Catalog) (*Survey, error) {
	if err := checkTemplate(tmpl); err != nil {
		return nil, err
	}
	dmr, err := catalog.WithDataMinusRandom(data, randoms)
	if err != nil {
		return nil, err
	}
	nRun, err := exec.Run(ctx, stage(tmpl, "dmr", dmr))
	if err != nil {
		return nil, fmt.Errorf("scenario: survey D-R stage: %w", err)
	}
	rRun, err := exec.Run(ctx, stage(tmpl, "randoms", estimator.ScaledRandoms(data, randoms)))
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
// every leave-one-out catalog as stages "full", "loo-000", ... of the
// template request tmpl, and feed the statistic vectors to the jackknife
// covariance. Each sample is a complete catalog run, so any backend —
// including checkpointed sharded runs — serves every stage.
func RunJackknife(ctx context.Context, tmpl exec.Request, cat *catalog.Catalog, regions int) (*Jackknife, error) {
	if err := checkTemplate(tmpl); err != nil {
		return nil, err
	}
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
	full, err := exec.Run(ctx, stage(tmpl, "full", cat))
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
		name := fmt.Sprintf("loo-%03d", p)
		run, err := exec.Run(ctx, stage(tmpl, name, loo))
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
