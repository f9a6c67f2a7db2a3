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
// The Request's Backend spec scales the same job out-of-core (sharded: the
// catalog streamed into slabs with halo copies, computed one at a time and
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
	"galactos/internal/gridded"
	"galactos/internal/perfstat"
	"galactos/internal/scenario"
	"galactos/internal/stats"
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
// — the config half of the service result-cache key, and the scenario pin
// in perfstat reports.
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
// 20 radial bins, l_max = 10, bucket size 128.
func DefaultConfig() Config { return core.DefaultConfig() }

// Backend is one execution strategy of the unified execution layer
// (internal/exec): Local or Sharded. Both run the same job descriptor and
// feed the same telemetry; see DESIGN.md, "Execution layer".
type Backend = exec.Backend

// BackendSpec selects and parameterizes a backend from flag-shaped inputs
// (the cmd/galactos -backend surface).
type BackendSpec = exec.Spec

// UnitStats is the uniform per-unit (engine run / shard) report of a backend
// run.
type UnitStats = exec.UnitStats

// RunResult bundles a backend run's outputs: the merged Result, per-unit
// statistics, and the uniform perfstat report.
type RunResult = exec.RunResult

// CatalogSource streams a catalog in chunks; see NewFileSource for the
// out-of-core entry point.
type CatalogSource = catalog.Source

// NewMemorySource adapts an in-memory catalog to the streaming interface.
func NewMemorySource(cat *Catalog) CatalogSource { return catalog.NewMemorySource(cat) }

// NewFileSource streams a catalog file (binary, or CSV for .csv paths)
// without loading it into memory; the sharded backend consumes it
// shard-by-shard, so peak memory stays bounded by one shard.
func NewFileSource(path string) CatalogSource { return catalog.NewFileSource(path) }

// LocalBackend runs the single-node in-memory engine.
func LocalBackend() Backend { return exec.Local{} }

// ComputeSubset computes with an explicit primary mask (halo copies or
// sub-sample analyses).
func ComputeSubset(cat *Catalog, primary []bool, cfg Config) (*Result, error) {
	return core.ComputeSubset(cat, primary, cfg)
}

// SaveResult writes a Result checkpoint in the versioned binary format
// (atomic: written to a temporary file and renamed into place).
func SaveResult(path string, r *Result) error { return core.SaveResult(path, r) }

// LoadResult reads a Result checkpoint, rejecting unknown versions and
// corrupted or truncated files.
func LoadResult(path string) (*Result, error) { return core.LoadResult(path) }

// PerfReport is the machine-readable performance summary of one run:
// pairs/sec, model FLOP rate, and the per-phase timing breakdown. Every Run
// returns one (RunResult.Perf); it serializes to JSON with WriteJSON and is
// what `galactos -perf-json` writes and galactosd serves as a job's `perf`.
type PerfReport = perfstat.Report

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

// LoadCatalog reads a catalog file (binary, or CSV for .csv paths).
func LoadCatalog(path string) (*Catalog, error) { return catalog.Load(path) }

// SaveCatalog writes a catalog in the binary format.
func SaveCatalog(path string, cat *Catalog) error { return catalog.SaveBinary(path, cat) }

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
type CovarianceMatrix = stats.Matrix

// JackknifeCovariance estimates a covariance matrix from per-subvolume
// samples of a statistic (paper Sec. 6.1).
func JackknifeCovariance(samples [][]float64) (*CovarianceMatrix, error) {
	return stats.JackknifeCovariance(samples)
}

// SampleCovariance estimates a covariance from independent mock catalogs.
func SampleCovariance(samples [][]float64) (*CovarianceMatrix, error) {
	return stats.SampleCovariance(samples)
}

// EdgeCorrected holds survey-geometry-corrected isotropic multipoles.
type EdgeCorrected = estimator.Corrected

// EdgeCorrectedZeta runs the full survey-geometry correction of Sec. 6.1:
// it computes the 3PCF of the data-minus-randoms field and of the randoms,
// then inverts the Wigner-3j window mixing matrix per radial-bin pair to
// recover the true isotropic multipoles.
func EdgeCorrectedZeta(data, randoms *Catalog, cfg Config) (*EdgeCorrected, error) {
	return estimator.CorrectedZeta(data, randoms, cfg)
}

// Scenario is one row of the survey-science scenario registry: a named,
// seeded end-to-end workload (catalog recipe + Config + invariants) that
// runs through any Backend. The registry is the correctness gate every
// backend must pass; see DESIGN.md, "Scenario registry".
type Scenario = scenario.Scenario

// ScenarioInvariant is one machine-checked property of a scenario outcome.
type ScenarioInvariant = scenario.Invariant

// ScenarioOutcome carries everything a scenario run produced, plus the
// bitwise GoldenHash and tolerance-based MaxRelDiff comparison helpers.
type ScenarioOutcome = scenario.Outcome

// SurveyRun is the output of the data+randoms survey-estimator workload:
// the D-R and scaled-randoms stage runs and the edge-corrected multipoles.
type SurveyRun = scenario.Survey

// JackknifeRun is the output of the spatial-resampling workload: per-region
// leave-one-out statistic vectors and their jackknife covariance.
type JackknifeRun = scenario.Jackknife

// Scenarios returns the scenario registry rows in registration order.
func Scenarios() []*Scenario { return scenario.All() }

// ScenarioNames returns the sorted registry names.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName resolves a registry entry.
func ScenarioByName(name string) (*Scenario, error) { return scenario.Get(name) }

// RunScenario runs a registry entry end-to-end through the backend at
// catalog size n (clamped up to the scenario's MinN) and checks every
// invariant; the first violation is returned as an error alongside the
// outcome.
func RunScenario(ctx context.Context, b Backend, name string, n int, seed int64) (*ScenarioOutcome, error) {
	s, err := scenario.Get(name)
	if err != nil {
		return nil, err
	}
	return s.RunChecked(ctx, b, n, seed)
}

// RunSurveyEstimator runs the backend-routed survey estimator of Sec. 6.1:
// the data-minus-randoms field and the scaled randoms each run through b
// (checkpointed backends keep disjoint per-stage checkpoint sets), then the
// mixing-matrix edge correction recovers the true isotropic multipoles.
func RunSurveyEstimator(ctx context.Context, b Backend, data, randoms *Catalog, cfg Config) (*SurveyRun, error) {
	return scenario.RunSurveyEstimator(ctx, b, data, randoms, cfg)
}

// RunJackknifeResampling runs the delete-one spatial jackknife of Sec. 6.1
// through the backend: the catalog is split into regions with the k-d
// partitioner, the full sample and every leave-one-out catalog run as
// independently resumable stages, and the statistic vectors feed the
// jackknife covariance.
func RunJackknifeResampling(ctx context.Context, b Backend, cat *Catalog, regions int, cfg Config) (*JackknifeRun, error) {
	return scenario.RunJackknife(ctx, b, cat, regions, cfg)
}

// MeshAssignment selects the mass-deposition scheme for gridded data.
type MeshAssignment = gridded.Assignment

// Mesh deposition schemes.
const (
	MeshNGP = gridded.NGP
	MeshCIC = gridded.CIC
)

// ComputeGridded deposits the catalog onto an n^3 mesh and runs the 3PCF
// over the occupied cells — the gridded-data acceleration of Sec. 6.3. The
// mesh cell must not exceed the radial bin width.
func ComputeGridded(cat *Catalog, meshN int, scheme MeshAssignment, cfg Config) (*Result, error) {
	res, _, err := gridded.Compute(cat, meshN, scheme, cfg)
	return res, err
}
