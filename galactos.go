// Package galactos computes the isotropic and anisotropic galaxy 3-point
// correlation functions (3PCF) with the O(N^2) spherical-harmonic multipole
// algorithm of Friesen et al., "Galactos: Computing the Anisotropic 3-Point
// Correlation Function for 2 Billion Galaxies" (SC '17).
//
// The only required input is the 3-D positions of the galaxies (plus
// optional weights). Every computation goes through the one canonical
// entrypoint, Run, with a Request describing the job:
//
//	cat := galactos.GenerateClustered(100000, 500, galactos.DefaultClusterParams(), 1)
//	run, err := galactos.Run(ctx, galactos.Request{
//		Catalog: cat,
//		Config:  galactos.DefaultConfig(),
//	})
//	// run.Result.IsoZeta(l, b1, b2), run.Result.ZetaM(l1, l2, m, b1, b2)
//
// ExampleRun is this call as runnable code, and the Examples beside it cover
// the sharded kill-and-resume, redshift-space anisotropy, the survey
// estimator and jackknife covariance; go test checks what each one prints.
//
// The Request's Backend spec scales the same job out-of-core (sharded: the
// catalog streamed into k-d parts with halo copies, computed one at a time and
// reduced in order, with checkpoints); serialized to JSON, the identical
// Request is the wire schema of the galactosd job service (see
// cmd/galactosd and the client package).
//
// The package also exposes the 2-point correlation function, brute-force
// verification oracles, jackknife covariance estimation, and synthetic
// catalog generators — everything needed to reproduce the paper's
// evaluation. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// the measured results.
package galactos

import (
	"context"

	"galactos/internal/bruteforce"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/estimator"
	"galactos/internal/exec"
	"galactos/internal/geom"
	"galactos/internal/scenario"
	"galactos/internal/twopcf"
)

// Vec3 is a 3-D position or separation (Mpc/h in the paper's units).
type Vec3 = geom.Vec3

// Periodic describes cubic periodic boundaries (L = 0 means open).
type Periodic = geom.Periodic

// Galaxy is one tracer: a position and a weight (negative for randoms).
type Galaxy = catalog.Galaxy

// Catalog is a set of galaxies in a (possibly periodic) volume.
type Catalog = catalog.Catalog

// Config holds the 3PCF computation parameters; start from DefaultConfig.
// Config.Fingerprint is the canonical hash of the normalized configuration
// — the config half of the service result-cache key and of the shard
// checkpoint manifest.
type Config = core.Config

// Result holds the accumulated 3PCF multipoles zeta^m_{l1 l2}(r1, r2) and
// derived isotropic multipoles zeta_l(r1, r2).
type Result = core.Result

// Combo identifies one anisotropic channel (l1 <= l2, 0 <= m <= l1).
type Combo = core.Combo

// Breakdown reports where the computation time went (paper Fig. 4).
type Breakdown = core.Breakdown

// ClusterParams configures the halo-model catalog generator.
type ClusterParams = catalog.ClusterParams

// BAOParams configures the BAO-shell catalog generator.
type BAOParams = catalog.BAOParams

// Line-of-sight conventions (paper Sec. 3.1).
const (
	// LOSRadial rotates each primary's frame so the observer direction is
	// the z axis (the paper's rotation step, for survey geometries).
	LOSRadial = core.LOSRadial
	// LOSPlaneParallel uses the global z axis (simulation boxes).
	LOSPlaneParallel = core.LOSPlaneParallel
	// LOSMidpoint builds each pair's frame from the unit bisector of the two
	// position vectors (the Slepian–Eisenstein midpoint convention): a
	// per-pair frame, invariant under pair swap, unlike LOSRadial.
	LOSMidpoint = core.LOSMidpoint
)

// DefaultConfig returns the paper's configuration: Rmax = 200 Mpc/h,
// 20 radial bins, l_max = 10.
func DefaultConfig() Config { return core.DefaultConfig() }

// BackendSpec says where a Request runs: the in-memory engine ("local", the
// zero value) or the out-of-core k-d part pipeline ("sharded", with its shard
// count and checkpoint options). Both feed the same telemetry; see
// DESIGN.md, "Execution layer".
type BackendSpec = exec.Spec

// UnitStats is the uniform per-unit (engine run / shard) report of a backend
// run.
type UnitStats = exec.UnitStats

// RunResult is the one record of a backend run: the merged Result with its
// phase timings, per-unit statistics, the backend that ran and the elapsed
// wall clock. Its JSON encoding is what `galactos -perf-json` writes.
type RunResult = exec.RunResult

// CatalogSource streams a catalog in chunks; see NewFileSource for the
// out-of-core entry point.
type CatalogSource = catalog.Source

// NewMemorySource adapts an in-memory catalog to the streaming interface.
func NewMemorySource(cat *Catalog) CatalogSource { return catalog.NewMemorySource(cat) }

// NewFileSource streams a catalog file (binary, or CSV for .csv paths)
// without loading it into memory; the sharded backend consumes it
// shard-by-shard, so peak memory stays bounded by two shards (the one
// computing and the next, prepared while it runs).
func NewFileSource(path string) CatalogSource { return catalog.NewFileSource(path) }

// SaveResult writes a Result checkpoint in the versioned binary format
// (atomic: written to a temporary file and renamed into place).
func SaveResult(path string, r *Result) error { return core.SaveResult(path, r) }

// LoadResult reads a Result checkpoint, rejecting unknown versions and
// corrupted or truncated files.
func LoadResult(path string) (*Result, error) { return core.LoadResult(path) }

// BruteForce3PCF computes the anisotropic 3PCF by O(N^3) direct triplet
// counting — the verification oracle (use only on small catalogs).
func BruteForce3PCF(cat *Catalog, cfg Config) (*Result, error) {
	return bruteforce.Aniso(cat, cfg)
}

// GenerateUniform creates n galaxies uniformly in a periodic cube of side l.
func GenerateUniform(n int, l float64, seed int64) *Catalog {
	return catalog.Uniform(n, l, seed)
}

// GenerateClustered creates a halo-model clustered catalog.
func GenerateClustered(n int, l float64, p ClusterParams, seed int64) *Catalog {
	return catalog.Clustered(n, l, p, seed)
}

// GenerateBAO creates a catalog with galaxies on acoustic-scale shells.
func GenerateBAO(n int, l float64, p BAOParams, seed int64) *Catalog {
	return catalog.BAOShells(n, l, p, seed)
}

// DefaultClusterParams returns BOSS-like halo-model parameters.
func DefaultClusterParams() ClusterParams { return catalog.DefaultClusterParams() }

// DefaultBAOParams returns shell parameters at the acoustic scale.
func DefaultBAOParams() BAOParams { return catalog.DefaultBAOParams() }

// ApplyRSD returns a copy of the catalog with plane-parallel redshift-space
// displacement of amplitude sigmaZ along z.
func ApplyRSD(cat *Catalog, sigmaZ float64, seed int64) *Catalog {
	return catalog.ApplyRSD(cat, sigmaZ, seed)
}

// DataMinusRandom builds the weighted D-R field for survey-geometry
// correction (paper Sec. 6.1).
func DataMinusRandom(data, random *Catalog) (*Catalog, error) {
	return catalog.WithDataMinusRandom(data, random)
}

// LoadCatalog reads a catalog file in the format its extension names: CSV
// for a ".csv" path, the binary format for any other. It refuses a catalog
// that breaks the acceptance rule Run applies (a non-finite position or
// weight, or in a periodic box a coordinate outside [0, L)).
func LoadCatalog(path string) (*Catalog, error) {
	return catalog.ReadAll(catalog.NewFileSource(path))
}

// SaveCatalog writes a catalog in the format the path's extension names, the
// rule LoadCatalog and every run's file reader apply: CSV rows for a ".csv"
// path, the binary format for any other.
func SaveCatalog(path string, cat *Catalog) error { return catalog.Save(path, cat) }

// TwoPCFConfig holds 2PCF pair-count parameters.
type TwoPCFConfig = twopcf.Config

// PairCounts holds weighted Legendre pair counts of the anisotropic 2PCF.
type PairCounts = twopcf.PairCounts

// TwoPCF counts weighted pairs per radial bin and Legendre multipole.
func TwoPCF(cat *Catalog, cfg TwoPCFConfig) (*PairCounts, error) {
	return twopcf.Count(cat, cfg)
}

// LandySzalay computes the LS estimator of the 2PCF monopole.
func LandySzalay(data, random *Catalog, cfg TwoPCFConfig) ([]float64, error) {
	return twopcf.LandySzalay(data, random, cfg)
}

// CovarianceMatrix is a dense square matrix with inversion and diagnostics.
type CovarianceMatrix = estimator.Matrix

// JackknifeCovariance estimates a covariance matrix from per-subvolume
// samples of a statistic (paper Sec. 6.1).
func JackknifeCovariance(samples [][]float64) (*CovarianceMatrix, error) {
	return estimator.JackknifeCovariance(samples)
}

// EdgeCorrected holds survey-geometry-corrected isotropic multipoles.
type EdgeCorrected = estimator.Corrected

// ScenarioOutcome carries everything a scenario run produced, plus the
// bitwise GoldenHash and tolerance-based MaxRelDiff comparison helpers.
type ScenarioOutcome = scenario.Outcome

// SurveyRun is the output of the data+randoms survey-estimator workload:
// the D-R and scaled-randoms stage runs and the edge-corrected multipoles.
type SurveyRun = scenario.Survey

// JackknifeRun is the output of the spatial-resampling workload: per-region
// leave-one-out statistic vectors and their jackknife covariance.
type JackknifeRun = scenario.Jackknife

// RunScenario runs a registry entry end-to-end on the backend spec at
// catalog size n (clamped up to the scenario's MinN) and checks every
// invariant; the first violation is returned as an error alongside the
// outcome.
func RunScenario(ctx context.Context, spec BackendSpec, name string, n int, seed int64) (*ScenarioOutcome, error) {
	s, err := scenario.Get(name)
	if err != nil {
		return nil, err
	}
	return s.RunChecked(ctx, spec, n, seed)
}

// RunSurveyEstimator runs the survey estimator of Sec. 6.1: the
// data-minus-randoms field and the scaled randoms each run as the template
// request tmpl (its Config, Backend and Log; a checkpointed backend keeps
// disjoint per-stage checkpoint sets), then the mixing-matrix edge
// correction recovers the true isotropic multipoles. tmpl must name no
// catalog.
func RunSurveyEstimator(ctx context.Context, tmpl Request, data, randoms *Catalog) (*SurveyRun, error) {
	return scenario.RunSurveyEstimator(ctx, tmpl, data, randoms)
}

// RunJackknifeResampling runs the delete-one spatial jackknife of Sec. 6.1
// as the template request tmpl (which must name no catalog): the catalog is
// split into regions with the k-d partitioner, the full sample and every
// leave-one-out catalog run as independently resumable stages, and the
// statistic vectors feed the jackknife covariance.
func RunJackknifeResampling(ctx context.Context, tmpl Request, cat *Catalog, regions int) (*JackknifeRun, error) {
	return scenario.RunJackknife(ctx, tmpl, cat, regions)
}
