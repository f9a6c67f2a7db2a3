// Package chaos is the chaos harness: the sweep that turns the stack's
// recovery machinery from a claim into a checked property. Each case runs a
// workload twice — once clean, pinning a bitwise golden hash of the output,
// and once under an armed faultpoint plan — and recovery is only credited
// when the faulted run reproduces the hash exactly. Absorbing a fault by
// producing a slightly different answer is the failure mode this harness
// exists to catch: the paper's platform treats partial failure as routine,
// and routine failure must be invisible in the science output.
//
// The case catalog (Suite) spans the whole stack: the scenario registry
// across every execution backend, the streaming shard pipeline with
// transient IO faults, checkpoint-resume with a poisoned checkpoint load,
// and the galactosd service surviving a worker panic and severed SSE
// streams. Sweep-level coverage is asserted too: Uncovered reports any
// registered faultpoint that never fired, so a new injection point cannot
// silently escape the sweep.
package chaos

import (
	"context"
	"fmt"
	"time"

	"galactos/internal/faultpoint"
)

// Case is one chaos sweep entry: a workload plus the fault plan armed while
// it re-runs.
type Case struct {
	// Name identifies the case in reports ("periodic-iso/sharded").
	Name string
	// Desc says what the case proves, for the summary table.
	Desc string
	// CleanKey groups cases whose clean runs are interchangeable (bitwise):
	// the harness runs one clean pass per distinct key (empty means the
	// case's own Name, i.e. no sharing). Note backends are NOT
	// interchangeable — they merge partial results in different orders, so
	// their outputs agree to rounding, not bits.
	CleanKey string
	// Points is the fault plan armed for the faulted pass; empty when the
	// faults fire in another process (the subprocess crash sweep).
	Points []faultpoint.Point
	// Run executes the workload and returns the bitwise hash of its output.
	// It is called with the plan armed; when CleanRun is nil it is also the
	// clean pass.
	Run func(ctx context.Context) (string, error)
	// CleanRun, when non-nil, overrides Run for the clean pass — for
	// stateful cases where the clean pass also prepares state the faulted
	// pass consumes (the resume case populates the checkpoints the faulted
	// pass resumes from).
	CleanRun func(ctx context.Context) (string, error)
}

// Report is one case's sweep result.
type Report struct {
	Case string
	Desc string
	// Clean and Faulted are the two passes' output hashes; Match is their
	// bitwise equality (the recovery verdict).
	Clean   string
	Faulted string
	Match   bool
	// Elapsed times the faulted pass.
	Elapsed time.Duration
	// Stats snapshots the armed plan's per-point counters after the faulted
	// pass — the "injected" half of the injected-vs-recovered accounting.
	Stats []faultpoint.Stat
	// Err is a pass failure (either pass erroring, or a case-internal
	// assertion); a non-nil Err means no recovery verdict.
	Err error
}

// Failed reports whether the case failed: an errored pass or a hash
// mismatch.
func (r *Report) Failed() bool { return r.Err != nil || !r.Match }

// RunCases executes the sweep sequentially (faultpoint plans arm globally,
// so cases cannot overlap): per case, the clean pass runs disarmed (once per
// CleanKey), then the case's plan is armed under seed and the faulted pass
// must reproduce the clean hash. logf, when non-nil, narrates progress. A
// cancelled ctx stops the sweep; completed reports are returned either way.
func RunCases(ctx context.Context, seed int64, cases []Case, logf func(string, ...any)) []Report {
	defer faultpoint.Disable()
	clean := make(map[string]string)
	reports := make([]Report, 0, len(cases))
	for _, c := range cases {
		if ctx.Err() != nil {
			break
		}
		rep := Report{Case: c.Name, Desc: c.Desc}
		key := c.CleanKey
		if key == "" {
			key = c.Name
		}
		hash, ok := clean[key]
		if !ok {
			faultpoint.Disable()
			run := c.CleanRun
			if run == nil {
				run = c.Run
			}
			var err error
			if hash, err = run(ctx); err != nil {
				rep.Err = fmt.Errorf("clean pass: %w", err)
				reports = append(reports, rep)
				if logf != nil {
					logf("FAIL %-28s %v", c.Name, rep.Err)
				}
				continue
			}
			clean[key] = hash
		}
		rep.Clean = hash

		faultpoint.Enable(faultpoint.NewPlan(seed, c.Points...))
		start := time.Now()
		faulted, err := c.Run(ctx)
		rep.Elapsed = time.Since(start)
		rep.Stats = faultpoint.Stats()
		faultpoint.Disable()
		if err != nil {
			rep.Err = fmt.Errorf("faulted pass: %w", err)
		} else {
			rep.Faulted = faulted
			rep.Match = faulted == hash
		}
		reports = append(reports, rep)
		if logf != nil {
			switch {
			case rep.Err != nil:
				logf("FAIL %-28s %v", c.Name, rep.Err)
			case !rep.Match:
				logf("FAIL %-28s recovered hash %s != clean %s", c.Name, short(faulted), short(hash))
			default:
				logf("ok   %-28s fired %d/%d hits  %8v  %s", c.Name,
					totalFired(rep.Stats), totalHits(rep.Stats),
					rep.Elapsed.Round(time.Millisecond), short(hash))
			}
		}
	}
	return reports
}

func short(h string) string {
	if len(h) > 16 {
		return h[:16]
	}
	return h
}

func totalFired(stats []faultpoint.Stat) (n uint64) {
	for _, s := range stats {
		n += s.Fired
	}
	return n
}

func totalHits(stats []faultpoint.Stat) (n uint64) {
	for _, s := range stats {
		n += s.Hits
	}
	return n
}

// Coverage aggregates fire counts by faultpoint name across the sweep's
// reports — the injected-vs-recovered summary's per-point rows.
func Coverage(reports []Report) map[string]uint64 {
	cov := make(map[string]uint64)
	for _, r := range reports {
		for _, s := range r.Stats {
			cov[s.Name] += s.Fired
		}
	}
	return cov
}

// Uncovered returns the registered faultpoints that never fired across the
// sweep, in sorted order. A complete sweep returns none: every injection
// point compiled into the stack was exercised and recovered from.
func Uncovered(reports []Report) []string {
	cov := Coverage(reports)
	var missing []string
	for _, name := range faultpoint.Registered() {
		if cov[name] == 0 {
			missing = append(missing, name)
		}
	}
	return missing
}
