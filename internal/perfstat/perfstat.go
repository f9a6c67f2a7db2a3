// Package perfstat turns one 3PCF run's counters and phase timings into a
// machine-readable performance report: pairs/sec, the model FLOP rate from
// sphharm.FlopsPerPair, and the per-phase wall-clock breakdown the engine
// workers already record (block gather, tile consume, a_lm + zeta). A
// Report round-trips through JSON; CI's benchmark-regression gate
// (cmd/benchdiff via `make bench-check`) compares a fresh report against the
// committed BENCH_baseline.json and fails the pipeline when pairs/sec drops
// past the tolerance.
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
// Scenario fields (NGalaxies, NBins, LMax, pairs) identify what was
// measured; two reports are comparable only when those match.
type Report struct {
	// Label names the scenario, e.g. "bench-baseline".
	Label string `json:"label"`
	// Backend names the execution path that produced the measurement
	// ("local" or "sharded"; empty for direct engine calls). Filled
	// by the execution layer, which collects one report shape for every
	// backend.
	Backend string `json:"backend,omitempty"`
	// Host describes the measuring machine; regression comparisons across
	// differing hosts are flagged in the Compare summary.
	Host string `json:"host"`
	// GoMaxProcs and NumCPU record the scheduler budget and physical core
	// count at measurement time. A report whose Workers exceeds GoMaxProcs
	// ran oversubscribed — its per-phase wall clocks include timeslice
	// waits and its pairs/sec understates per-core throughput — so Compare
	// flags oversubscription and parallelism mismatches in the summary
	// instead of letting a "4 workers" baseline from a 1-CPU host pass
	// silently for a 4-CPU run. Zero means a legacy report written before
	// these fields existed.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
	// Timestamp is the measurement time, RFC 3339.
	Timestamp string `json:"timestamp"`

	NGalaxies  int    `json:"n_galaxies"`
	NPrimaries int    `json:"n_primaries"`
	NBins      int    `json:"n_bins"`
	LMax       int    `json:"l_max"`
	Pairs      uint64 `json:"pairs"`

	// Workers is the run's normalized worker budget and Scheduling its
	// primary-distribution policy ("dynamic"/"static"). Both change
	// pairs/sec without changing the computation, so Compare refuses to
	// gate across a mismatch. Zero/empty means a legacy report written
	// before these fields existed; such reports compare as before.
	Workers    int    `json:"workers,omitempty"`
	Scheduling string `json:"scheduling,omitempty"`
	// ConfigFingerprint is core.Config.Fingerprint of the measured run's
	// normalized configuration — the same canonical hash the galactosd
	// result cache keys on. It pins the full scenario, so Compare rejects
	// any configuration drift the coarser fields above can't see (bucket
	// size, finder, leaf size, ...). Empty means a legacy report.
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
	// waits, and the serial tree build. Zero for legacy reports or when the
	// worker budget is unknown. On oversubscribed hosts (Workers >
	// GoMaxProcs) the fraction also absorbs timeslice waits and is not a
	// scaling statement.
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`
	// WorkerPhaseSec is the per-worker phase breakdown (one map per worker,
	// same keys as PhaseSec minus tree_build): the spread across entries
	// shows scheduling imbalance that the summed PhaseSec hides. Present
	// only when the engine reported per-worker phases (local runs; the
	// binary result format does not carry them).
	WorkerPhaseSec []map[string]float64 `json:"worker_phase_sec,omitempty"`
}

// Collect builds a report from the run's configuration, its computed result,
// and its wall clock. The configuration contributes the scheduling-relevant
// scenario fields (worker budget, scheduling policy); an unnormalizable
// config leaves them at their legacy zero values.
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
		r.Scheduling = ncfg.Scheduling.String()
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

// ReadJSON loads a report written by WriteJSON.
func ReadJSON(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfstat: parsing %s: %w", path, err)
	}
	return &r, nil
}

// Compare checks a fresh report against a baseline with a fractional
// pairs/sec regression tolerance (0.25 fails anything more than 25% slower
// than baseline). It returns a human-readable summary, and an error when the
// reports measure different scenarios or the fresh rate regresses past the
// tolerance. Faster-than-baseline results always pass: the gate protects a
// floor, and `make bench-baseline` refreshes it after intentional changes.
func Compare(baseline, fresh *Report, tolerance float64) (string, error) {
	if baseline.NGalaxies != fresh.NGalaxies || baseline.NBins != fresh.NBins ||
		baseline.LMax != fresh.LMax {
		return "", fmt.Errorf(
			"perfstat: reports measure different scenarios (baseline %d galaxies / %d bins / lmax %d, fresh %d / %d / %d); refresh the baseline",
			baseline.NGalaxies, baseline.NBins, baseline.LMax,
			fresh.NGalaxies, fresh.NBins, fresh.LMax)
	}
	if baseline.Pairs != fresh.Pairs {
		return "", fmt.Errorf(
			"perfstat: pair counts differ (baseline %d, fresh %d) — the measured computation changed; refresh the baseline",
			baseline.Pairs, fresh.Pairs)
	}
	// Worker budget and scheduling policy scale pairs/sec without changing
	// the computation: gating across a mismatch would compare parallelism,
	// not code. Legacy reports (zero/empty fields) are exempt so committed
	// baselines keep working until refreshed.
	if baseline.Workers != 0 && fresh.Workers != 0 && baseline.Workers != fresh.Workers {
		return "", fmt.Errorf(
			"perfstat: worker budgets differ (baseline %d, fresh %d) — rates are not comparable; refresh the baseline",
			baseline.Workers, fresh.Workers)
	}
	if baseline.Scheduling != "" && fresh.Scheduling != "" && baseline.Scheduling != fresh.Scheduling {
		return "", fmt.Errorf(
			"perfstat: scheduling policies differ (baseline %q, fresh %q) — rates are not comparable; refresh the baseline",
			baseline.Scheduling, fresh.Scheduling)
	}
	// The fingerprint catches configuration drift the coarser scenario
	// fields can't (bucket size, finder, leaf size, ...). Checked after
	// them so the specific messages above win where they apply; legacy
	// reports (empty fingerprint) are exempt until refreshed.
	if baseline.ConfigFingerprint != "" && fresh.ConfigFingerprint != "" &&
		baseline.ConfigFingerprint != fresh.ConfigFingerprint {
		return "", fmt.Errorf(
			"perfstat: config fingerprints differ (baseline %s, fresh %s) — the measured configuration changed; refresh the baseline",
			baseline.ConfigFingerprint[:12], fresh.ConfigFingerprint[:12])
	}
	if baseline.PairsPerSec <= 0 {
		return "", fmt.Errorf("perfstat: baseline has no pairs/sec rate")
	}
	ratio := fresh.PairsPerSec / baseline.PairsPerSec
	summary := fmt.Sprintf("pairs/sec %.3e vs baseline %.3e (%+.1f%%)",
		fresh.PairsPerSec, baseline.PairsPerSec, (ratio-1)*100)
	if baseline.Host != fresh.Host {
		summary += fmt.Sprintf("; hosts differ (baseline %q, fresh %q)", baseline.Host, fresh.Host)
	}
	if baseline.GoMaxProcs != 0 && fresh.GoMaxProcs != 0 && baseline.GoMaxProcs != fresh.GoMaxProcs {
		summary += fmt.Sprintf("; GOMAXPROCS differs (baseline %d, fresh %d)", baseline.GoMaxProcs, fresh.GoMaxProcs)
	}
	summary += oversubscribedNote("baseline", baseline) + oversubscribedNote("fresh", fresh)
	if baseline.Backend != fresh.Backend {
		summary += fmt.Sprintf("; backends differ (baseline %q, fresh %q)", baseline.Backend, fresh.Backend)
	}
	if ratio < 1-tolerance {
		return summary, fmt.Errorf("perfstat: pairs/sec regressed %.1f%% (tolerance %.0f%%): %s",
			(1-ratio)*100, tolerance*100, summary)
	}
	return summary, nil
}

// oversubscribedNote flags a report whose pinned worker budget exceeds the
// measuring host's scheduler budget: its phase clocks and rate carry
// timeslice skew, so the gate's verdict should be read with that in mind.
func oversubscribedNote(which string, r *Report) string {
	if r.Workers == 0 || r.GoMaxProcs == 0 || r.Workers <= r.GoMaxProcs {
		return ""
	}
	return fmt.Sprintf("; %s ran oversubscribed (%d workers on GOMAXPROCS %d)",
		which, r.Workers, r.GoMaxProcs)
}
