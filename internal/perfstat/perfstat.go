// Package perfstat turns one 3PCF run's counters and phase timings into a
// machine-readable performance report: pairs/sec, the model FLOP rate from
// sphharm.FlopsPerPair, and the per-phase wall-clock breakdown the engine
// workers already record (block gather, tile consume, a_lm + zeta). The
// execution layer collects one Report per run; it is what `galactos
// -perf-json` writes, what galactosd serves as a job's `perf`, and what a
// scenario outcome carries per stage.
package perfstat

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"galactos/internal/core"
	"galactos/internal/sphharm"
)

// Report is the machine-readable performance summary of one computation.
// Scenario fields (NGalaxies, NBins, LMax, pairs, ConfigFingerprint)
// identify what was measured; two reports' rates say something about the
// code only when those match.
type Report struct {
	// Label names the run, e.g. "galactos-run" or a scenario stage.
	Label string `json:"label"`
	// Backend names the execution path that produced the measurement
	// ("local" or "sharded"; empty for direct engine calls). Filled
	// by the execution layer, which collects one report shape for every
	// backend.
	Backend string `json:"backend,omitempty"`
	// Host describes the measuring machine (OS/arch and CPU count).
	Host string `json:"host"`
	// GoMaxProcs and NumCPU record the scheduler budget and physical core
	// count at measurement time. A report whose Workers exceeds GoMaxProcs
	// ran oversubscribed: its per-phase wall clocks include timeslice waits
	// and its pairs/sec understates per-core throughput.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
	// Timestamp is the measurement time, RFC 3339.
	Timestamp string `json:"timestamp"`

	NGalaxies  int    `json:"n_galaxies"`
	NPrimaries int    `json:"n_primaries"`
	NBins      int    `json:"n_bins"`
	LMax       int    `json:"l_max"`
	Pairs      uint64 `json:"pairs"`

	// Workers is the run's normalized worker budget. It changes pairs/sec
	// without changing the computation. Zero when the configuration did not
	// normalize.
	Workers int `json:"workers,omitempty"`
	// ConfigFingerprint is core.Config.Fingerprint of the measured run's
	// normalized configuration — the same canonical hash the galactosd
	// result cache keys on. It pins the full scenario, including the knobs
	// the coarser fields above can't see (bucket size, chunk size, ...).
	ConfigFingerprint string `json:"config_fingerprint,omitempty"`

	ElapsedSec        float64 `json:"elapsed_sec"`
	PairsPerSec       float64 `json:"pairs_per_sec"`
	FlopsPerPair      int     `json:"flops_per_pair"`
	ModelGFlopsPerSec float64 `json:"model_gflops_per_sec"`

	// PhaseSec breaks the run down by engine phase (seconds): tree_build,
	// gather, consume, self_count, alm_zeta, worker_total. Worker
	// phases are summed across workers, so they can exceed ElapsedSec.
	PhaseSec map[string]float64 `json:"phase_sec"`

	// ParallelEfficiency is the worker-busy fraction of the run:
	// worker_total / (workers × elapsed). 1.0 means every worker computed
	// for the whole wall clock; the shortfall is scheduler idle, commit-clock
	// waits, and the serial tree build. Zero when the worker budget is
	// unknown. On oversubscribed hosts (Workers > GoMaxProcs) the fraction
	// also absorbs timeslice waits and is not a scaling statement.
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`
	// WorkerPhaseSec is the per-worker phase breakdown (one map per worker,
	// same keys as PhaseSec minus tree_build): the spread across entries
	// shows scheduling imbalance that the summed PhaseSec hides. Present
	// only when the engine reported per-worker phases (local runs; the
	// binary result format does not carry them).
	WorkerPhaseSec []map[string]float64 `json:"worker_phase_sec,omitempty"`
}

// Collect builds a report from the run's configuration, its computed result,
// and its wall clock. The configuration contributes the worker budget and
// the fingerprint; an unnormalizable config leaves them at their zero
// values.
func Collect(label string, cfg core.Config, res *core.Result, elapsed time.Duration) *Report {
	sec := elapsed.Seconds()
	r := &Report{
		Label:        label,
		Host:         fmt.Sprintf("%s/%s %d-cpu", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		NGalaxies:    res.NGalaxies,
		NPrimaries:   res.NPrimaries,
		NBins:        res.Bins.N,
		LMax:         res.LMax,
		Pairs:        res.Pairs,
		ElapsedSec:   sec,
		FlopsPerPair: sphharm.FlopsPerPair(res.LMax),
		PhaseSec: map[string]float64{
			"tree_build":   res.Timings.TreeBuild.Seconds(),
			"gather":       res.Timings.Gather.Seconds(),
			"consume":      res.Timings.Consume.Seconds(),
			"self_count":   res.Timings.SelfCount.Seconds(),
			"alm_zeta":     res.Timings.AlmZeta.Seconds(),
			"worker_total": res.Timings.WorkerTotal.Seconds(),
		},
	}
	if sec > 0 {
		r.PairsPerSec = float64(res.Pairs) / sec
		r.ModelGFlopsPerSec = res.FlopsEstimate() / sec / 1e9
	}
	if ncfg, err := cfg.Normalize(); err == nil {
		r.Workers = ncfg.Workers
	}
	if fp, err := cfg.Fingerprint(); err == nil {
		r.ConfigFingerprint = fp
	}
	if r.Workers > 0 && sec > 0 {
		r.ParallelEfficiency = res.Timings.WorkerTotal.Seconds() / (float64(r.Workers) * sec)
	}
	for _, wp := range res.WorkerPhases {
		r.WorkerPhaseSec = append(r.WorkerPhaseSec, map[string]float64{
			"gather":       wp.Gather.Seconds(),
			"consume":      wp.Consume.Seconds(),
			"self_count":   wp.SelfCount.Seconds(),
			"alm_zeta":     wp.AlmZeta.Seconds(),
			"worker_total": wp.WorkerTotal.Seconds(),
		})
	}
	return r
}

// WriteJSON writes the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
