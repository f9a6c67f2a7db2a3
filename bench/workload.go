package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"galactos"
	"galactos/internal/bruteforce"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/exec"
	"galactos/internal/geom"
	"galactos/internal/twopcf"
)

// workload is one benchmark scenario. A slice is reset (untimed), set up
// and solved (each timed), then checked (untimed).
type workload interface {
	// reset prepares what the next slice consumes and must not reuse.
	reset(slice int) error
	// setup is the work a user pays before solving can start.
	setup(tr *tracer) error
	// solve is the call (or request script) whose time is solve_s.
	solve(tr *tracer) (*outcome, error)
	// settle returns once nothing a set-up or solve started is still running.
	settle() error
	// check verifies the outcome, counts what fails in o.failed and
	// returns the first failure.
	check(o *outcome) error
	// reference is the result the default seed's golden digest is taken of.
	reference() (*core.Result, error)
	// describe names the inputs in the report's fingerprint.
	describe() inputs
	// probeInputs hands the layer probes this workload's actual inputs,
	// probeRequest its own request as a service client would send it.
	probeInputs() probeInputs
	probeRequest() galactos.Request
	close() error
}

// outcome is what one slice's solve produced.
type outcome struct {
	// res is the run's result on the engine workloads.
	res *core.Result
	// ops and failed count the slice's operations: one per slice on the
	// engine workloads, one per request on service_mix.
	ops, failed int
	// engineS is the engine's own wall time inside the solve, for the
	// phase-share cross-check.
	engineS float64
	// timings is the engine's phase breakdown, summed over the slice.
	timings core.Breakdown
	// service_mix only: each hit's latency, and what every request was
	// answered with.
	hitMs    []float64
	payloads []servedPayload
}

// inputs is the part of the report's fingerprint that names the problem.
type inputs struct {
	N           int    `json:"n_galaxies"`
	Pairs       uint64 `json:"pairs"`
	CatalogHash string `json:"catalog_hash"`
	Fingerprint string `json:"config_fingerprint"`
}

// probeInputs is what the per-layer probes run on: the workload's catalog,
// the file it was written to, its engine configuration and its backend.
type probeInputs struct {
	cat     *catalog.Catalog
	path    string
	cfg     core.Config
	backend exec.Spec
	dir     string
}

// engineSpec describes a workload that is one galactos.Run per slice.
type engineSpec struct {
	// n is the catalog size at scale 1; the box side follows from the
	// Outer Rim number density, the paper's (Sec. 4.2).
	n        int
	generate func(n int, l float64, seed int64) *catalog.Catalog
	config   func(l float64) core.Config
	backend  exec.Spec
	// fromFile makes the solve read the catalog file itself (Request.Path)
	// instead of the copy the set-up phase decoded.
	fromFile bool
}

// baseConfig pins the engine to one worker: on a 2-CPU shared host a second
// worker measures the neighbour, not the code (bench/README.md).
func baseConfig(rmax float64, nbins, lmax int) core.Config {
	cfg := core.DefaultConfig()
	cfg.RMax, cfg.NBins, cfg.LMax = rmax, nbins, lmax
	cfg.Workers = 1
	return cfg
}

// periodicRMax keeps a periodic box valid when -scale shrinks it below the
// workload's own size; at scale 1 it returns rmax unchanged.
func periodicRMax(rmax, l float64) float64 { return math.Min(rmax, l/2.2) }

var engineSpecs = map[string]engineSpec{
	"aniso_box": {
		n: 2600,
		generate: func(n int, l float64, seed int64) *catalog.Catalog {
			return catalog.Clustered(n, l, catalog.DefaultClusterParams(), seed)
		},
		config: func(l float64) core.Config {
			cfg := baseConfig(periodicRMax(15, l), 10, 10)
			cfg.SelfCount = false
			return cfg
		},
		backend: exec.Spec{Name: "local"},
	},
	"iso_survey": {
		n: 1300,
		generate: func(n int, l float64, seed int64) *catalog.Catalog {
			cat := catalog.Uniform(n, l, seed)
			cat.Box = geom.Periodic{} // survey geometry: open boundaries
			return cat
		},
		config: func(l float64) core.Config {
			cfg := baseConfig(math.Min(10, l/2.2), 10, 10)
			cfg.LOS = core.LOSRadial
			cfg.Observer = geom.Vec3{X: l / 2, Y: l / 2, Z: -2 * l}
			cfg.IsotropicOnly = true
			cfg.SelfCount = true
			return cfg
		},
		backend: exec.Spec{Name: "local"},
	},
	"stream_sharded": {
		n: 24000,
		generate: func(n int, l float64, seed int64) *catalog.Catalog {
			return catalog.Clustered(n, l, catalog.DefaultClusterParams(), seed)
		},
		config: func(l float64) core.Config {
			cfg := baseConfig(periodicRMax(5, l), 6, 4)
			cfg.SelfCount = false
			return cfg
		},
		backend:  exec.Spec{Name: "sharded", Shards: 8, ShardConcurrency: 1, Stream: true},
		fromFile: true,
	},
}

// boxFor is the cube side that holds n galaxies at the Outer Rim density.
func boxFor(n int) float64 { return math.Cbrt(float64(n) / catalog.OuterRimDensity) }

func scaled(n int, scale float64) int { return max(120, int(float64(n)*scale)) }

type engineWorkload struct {
	spec    engineSpec
	dir     string
	path    string
	cfg     core.Config
	backend exec.Spec
	in      inputs

	cat *catalog.Catalog // decoded by the latest set-up
	ref *core.Result     // first slice's result; later slices must reproduce it
}

func newEngineWorkload(spec engineSpec, seed int64, scale float64, dir string) (*engineWorkload, error) {
	n := scaled(spec.n, scale)
	l := boxFor(n)
	w := &engineWorkload{spec: spec, dir: dir, cfg: spec.config(l), backend: spec.backend}
	if w.backend.Name == "sharded" {
		w.backend.CheckpointDir = filepath.Join(dir, "checkpoints")
	}
	if err := verifyAgainstOracle(spec, w.backend, seed, dir); err != nil {
		return nil, err
	}
	cat := spec.generate(n, l, seed)
	w.path = filepath.Join(dir, "catalog.glxc")
	if err := catalog.SaveBinary(w.path, cat); err != nil {
		return nil, err
	}
	var err error
	if w.in, err = describeInputs(cat, w.cfg); err != nil {
		return nil, err
	}
	return w, nil
}

// describeInputs hashes the catalog and configuration and counts the pairs
// the engine must visit.
func describeInputs(cat *catalog.Catalog, cfg core.Config) (inputs, error) {
	in := inputs{N: cat.Len()}
	var err error
	if in.CatalogHash, err = catalog.Hash(catalog.NewMemorySource(cat)); err != nil {
		return in, err
	}
	if in.Fingerprint, err = cfg.Fingerprint(); err != nil {
		return in, err
	}
	in.Pairs, err = countPairs(cat, cfg)
	return in, err
}

// countPairs is the oracle for the engine's pair count: the 2PCF counter
// over the same radial range.
func countPairs(cat *catalog.Catalog, cfg core.Config) (uint64, error) {
	pc, err := twopcf.Count(cat, twopcf.Config{RMin: cfg.RMin, RMax: cfg.RMax, NBins: cfg.NBins, Workers: 1})
	if err != nil {
		return 0, err
	}
	return pc.NPairs, nil
}

func (w *engineWorkload) reset(int) error {
	if w.backend.CheckpointDir == "" {
		return nil
	}
	return os.RemoveAll(w.backend.CheckpointDir)
}

func (w *engineWorkload) setup(tr *tracer) error {
	src := catalog.NewFileSource(w.path)
	if err := tr.do("catalog.ReadAll", func() (err error) {
		w.cat, err = catalog.ReadAll(src)
		return err
	}); err != nil {
		return err
	}
	var hash, fp string
	if err := tr.do("catalog.Hash", func() (err error) {
		hash, err = catalog.Hash(src)
		return err
	}); err != nil {
		return err
	}
	if err := tr.do("core.Config.Fingerprint", func() (err error) {
		fp, err = w.cfg.Fingerprint()
		return err
	}); err != nil {
		return err
	}
	if hash != w.in.CatalogHash || fp != w.in.Fingerprint {
		return fmt.Errorf("set-up read catalog %s config %s, want %s %s", hash, fp, w.in.CatalogHash, w.in.Fingerprint)
	}
	return nil
}

func (w *engineWorkload) request() galactos.Request {
	req := galactos.Request{Config: w.cfg, Backend: w.backend}
	if w.spec.fromFile {
		req.Path = w.path
	} else {
		req.Catalog = w.cat
	}
	return req
}

func (w *engineWorkload) solve(tr *tracer) (*outcome, error) {
	var run *galactos.RunResult
	if err := tr.do("galactos.Run", func() (err error) {
		run, err = galactos.Run(context.Background(), w.request())
		return err
	}); err != nil {
		return nil, err
	}
	o := &outcome{res: run.Result, ops: 1, timings: run.Result.Timings}
	for _, u := range run.Units {
		o.engineS += u.Elapsed.Seconds()
	}
	return o, nil
}

// settle: galactos.Run returns when its last goroutine has.
func (w *engineWorkload) settle() error { return nil }

func (w *engineWorkload) check(o *outcome) error {
	err := checkPairs(o.res, w.in.Pairs)
	if err == nil && w.ref != nil {
		err = checkSameZeta(o.res, w.ref, 1e-9)
	}
	if err != nil {
		o.failed = o.ops
		return err
	}
	if w.ref == nil {
		w.ref = o.res
	}
	return nil
}

func (w *engineWorkload) reference() (*core.Result, error) {
	if w.ref == nil {
		return nil, fmt.Errorf("no verified slice yet")
	}
	return w.ref, nil
}

func (w *engineWorkload) describe() inputs { return w.in }

func (w *engineWorkload) probeInputs() probeInputs {
	return probeInputs{cat: w.cat, path: w.path, cfg: w.cfg, backend: w.backend, dir: w.dir}
}

func (w *engineWorkload) probeRequest() galactos.Request { return w.request() }

func (w *engineWorkload) close() error { return nil }

// checkPairs compares the engine's pair count with the 2PCF counter's. The
// two bin in different precisions, so a pair on a bin edge may differ.
func checkPairs(res *core.Result, want uint64) error {
	if d := math.Abs(float64(res.Pairs) - float64(want)); d > 1e-4*float64(want) {
		return fmt.Errorf("engine visited %d pairs, twopcf counts %d", res.Pairs, want)
	}
	return nil
}

// checkSameZeta requires every channel of got within tol of want, relative
// to want's largest channel.
func checkSameZeta(got, want *core.Result, tol float64) error {
	if len(got.Aniso) != len(want.Aniso) {
		return fmt.Errorf("result has %d channels entries, want %d", len(got.Aniso), len(want.Aniso))
	}
	if d, scale := got.MaxAbsDiff(want), want.MaxAbs(); !(d <= tol*scale) {
		return fmt.Errorf("zeta differs by %.3g of its largest channel, tolerance %.0e", d/scale, tol)
	}
	return nil
}

// oracleN is the size of the catalog checked against direct triplet
// counting, and oracleBox its side in units of RMax (~25 neighbours each).
const (
	oracleN   = 200
	oracleBox = 3.3
)

// verifyAgainstOracle runs a small catalog of the workload's kind through
// the workload's backend and compares it with O(N^3) triplet counting. The
// oracle always counts triangles exactly, so the run enables SelfCount.
func verifyAgainstOracle(spec engineSpec, backend exec.Spec, seed int64, dir string) error {
	l := oracleBox * spec.config(boxFor(spec.n)).RMax
	cat := spec.generate(oracleN, l, seed)
	cfg := spec.config(l)
	cfg.SelfCount = true
	// The double-precision tree: a float32 coordinate can move a pair
	// across a bin edge, which the oracle's 1e-9 cannot absorb.
	cfg.Finder = core.FinderKD64
	req := galactos.Request{Config: cfg, Backend: backend, Catalog: cat}
	if spec.fromFile {
		req.Catalog, req.Path = nil, filepath.Join(dir, "oracle.glxc")
		if err := catalog.SaveBinary(req.Path, cat); err != nil {
			return err
		}
	}
	run, err := galactos.Run(context.Background(), req)
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	if backend.CheckpointDir != "" {
		if err := os.RemoveAll(backend.CheckpointDir); err != nil {
			return err
		}
	}
	return compareWithOracle(run.Result, cat, cfg)
}

func compareWithOracle(got *core.Result, cat *catalog.Catalog, cfg core.Config) error {
	want, err := bruteforce.Aniso(cat, cfg)
	if err != nil {
		return err
	}
	if got.Pairs != want.Pairs {
		return fmt.Errorf("oracle: engine visited %d pairs, direct counting %d", got.Pairs, want.Pairs)
	}
	nb2 := cfg.NBins * cfg.NBins
	var worst, scale float64
	for ci, c := range want.Combos.Combos {
		if cfg.IsotropicOnly && c.L1 != c.L2 {
			continue
		}
		for i := ci * nb2; i < (ci+1)*nb2; i++ {
			g, o := got.Aniso[i], want.Aniso[i]
			if cfg.IsotropicOnly { // the isotropic ladder keeps real parts only
				g, o = complex(real(g), 0), complex(real(o), 0)
			}
			worst = math.Max(worst, math.Hypot(real(g-o), imag(g-o)))
			scale = math.Max(scale, math.Hypot(real(o), imag(o)))
		}
	}
	if !(worst <= 1e-9*scale) {
		return fmt.Errorf("oracle: zeta differs from direct triplet counting by %.3g of its largest channel", worst/scale)
	}
	return nil
}
