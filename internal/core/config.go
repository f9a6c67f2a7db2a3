// Package core implements the Galactos anisotropic 3PCF engine: the O(N^2)
// algorithm of Sec. 3.1 (neighbor gathering, line-of-sight rotation, radial
// binning, bucketed multipole accumulation, a_lm conversion, and the
// zeta^m_{ll'} outer products), with the thread-level parallelization and
// scheduling strategy of Sec. 3.3.
package core

import (
	"fmt"
	"runtime"

	"galactos/internal/geom"
	"galactos/internal/hist"
	"galactos/internal/kdtree"
)

// LOSMode selects how the line of sight is defined.
type LOSMode int

const (
	// LOSRadial rotates each primary's frame so the direction from the
	// observer to the primary becomes the z axis — the paper's key step
	// (Fig. 2), correct for wide-angle survey geometries.
	LOSRadial LOSMode = iota
	// LOSPlaneParallel takes the global z axis as the line of sight for all
	// primaries ("the line of sight ... we here take to be the z-axis"),
	// the standard convention for periodic simulation boxes.
	LOSPlaneParallel
	// LOSMidpoint builds each pair's frame from the unit bisector of the two
	// galaxy direction vectors (the Slepian–Eisenstein midpoint convention):
	// the line of sight is a per-pair quantity, symmetric under swapping the
	// pair's endpoints while the separation vector negates — the standard
	// survey choice when wide-angle bias matters.
	LOSMidpoint
)

func (m LOSMode) String() string {
	switch m {
	case LOSRadial:
		return "radial"
	case LOSPlaneParallel:
		return "plane-parallel"
	case LOSMidpoint:
		return "midpoint"
	default:
		return fmt.Sprintf("LOSMode(%d)", int(m))
	}
}

// FinderKind named a neighbor-search substrate.
//
// Deprecated: the engine always searches a float32 k-d tree at a
// conservative radius (see Config.Finder); the constants remain for callers
// that still name them.
type FinderKind int

const (
	FinderKD32 FinderKind = iota
	FinderKD64
	FinderGrid
)

// Config holds a 3PCF computation's science configuration — the fields from
// RMax through IsotropicOnly, which alone decide the answer and its
// Fingerprint — plus the worker count and deprecated knobs, which change
// speed at most. The zero value is not valid; start from DefaultConfig.
type Config struct {
	// RMax is the maximum triangle side length (the paper uses 200 Mpc/h:
	// "on scales larger than 200 Mpc/h there are too few independent
	// samples ... to add meaningful information").
	RMax float64
	// RMin excludes pairs closer than this (0 keeps everything except
	// exactly coincident points).
	RMin float64
	// NBins is the number of radial shells between RMin and RMax (the
	// paper bins at ~10 Mpc/h width: 20 bins over [0, 200)).
	NBins int
	// LMax is the maximum multipole order (the paper uses 10: 286 power
	// combinations per pair there, (LMax+1)^2 = 121 independent sums here).
	LMax int
	// LOS selects the line-of-sight convention.
	LOS LOSMode
	// Observer is the observer position for LOSRadial and LOSMidpoint;
	// plane-parallel runs never read it.
	Observer geom.Vec3
	// SelfCount subtracts the secondary-paired-with-itself term from
	// diagonal (r1 == r2) bins so triplet counts are exact; disable to
	// match the paper's raw kernel cost in performance runs.
	SelfCount bool
	// IsotropicOnly restricts accumulation to the l1 == l2 multipoles
	// needed for the isotropic 3PCF: the Slepian–Eisenstein 2015 baseline
	// mode (Sec. 2.2).
	IsotropicOnly bool
	// Workers is the engine's worker count; <= 0 means GOMAXPROCS. Workers
	// claim commit units from a shared counter (the paper's OpenMP dynamic
	// schedule, Sec. 3.3) and commit them in unit order, so the count
	// changes speed, never a result bit.
	Workers int
	// Finder, LeafSize and GridCell once chose the neighbor search.
	//
	// Deprecated: decoded, ignored by the engine and not hashed. The engine
	// searches one float32 k-d tree of kdtree.DefaultLeafSize at a radius
	// widened by the float32 rounding bound, so the float64 pair pass alone
	// decides which pairs count. Normalize still fills LeafSize
	// (kdtree.DefaultLeafSize) and GridCell (RMax/4) for callers that build a
	// finder of their own.
	Finder   FinderKind
	LeafSize int
	GridCell float64
	// BucketSize once set the tile kernel's chunk capacity.
	//
	// Deprecated: decoded, ignored by the engine and not hashed. The engine
	// consumes pair tiles in chunks of the paper's bucket size, 128 (Sec.
	// 3.3.2). Normalize still fills it with 128 for callers that size a
	// kernel of their own.
	BucketSize int
}

// DefaultConfig returns the paper's configuration: Rmax = 200 Mpc/h, 20
// radial bins, l_max = 10, plane-parallel line of sight (for simulation
// cubes), self-count subtraction on.
func DefaultConfig() Config {
	return Config{
		RMax:      200,
		RMin:      0,
		NBins:     20,
		LMax:      10,
		LOS:       LOSPlaneParallel,
		SelfCount: true,
		Workers:   0,
	}
}

// Normalize fills defaults and validates. It returns the effective config.
// It is the single place worker counts (and the deprecated knobs) are
// resolved to positive values: the engine and the sharded pipeline both
// consume an already-normalized Workers instead of re-deriving it from
// GOMAXPROCS themselves.
func (c Config) Normalize() (Config, error) {
	if _, err := hist.NewBinning(c.RMin, c.RMax, c.NBins); err != nil {
		return c, fmt.Errorf("core: %w", err)
	}
	if c.LMax < 0 || c.LMax > 20 {
		return c, fmt.Errorf("core: LMax %d out of supported range [0, 20]", c.LMax)
	}
	if c.LOS < LOSRadial || c.LOS > LOSMidpoint {
		return c, fmt.Errorf("core: unknown LOS mode %v", c.LOS)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.LeafSize <= 0 {
		c.LeafSize = kdtree.DefaultLeafSize
	}
	if c.GridCell <= 0 {
		c.GridCell = c.RMax / 4
	}
	if c.BucketSize <= 0 {
		c.BucketSize = kernelChunk
	}
	return c, nil
}
