// Package chaos is the chaos sweep, and it is made of tests only. Each
// case runs a workload twice: once clean, pinning a bitwise hash of the
// output, and once under an armed faultpoint plan. Recovery is credited
// only when the faulted run reproduces the hash exactly. Absorbing a fault
// by producing a slightly different answer is the failure mode this sweep
// exists to catch: the paper's platform treats partial failure as routine,
// and routine failure must be invisible in the science output.
//
// The cases (suite_test.go) span the whole stack: the scenario registry on
// both backends, the streaming shard pipeline with transient IO faults,
// checkpoint resume with a poisoned checkpoint load, and the galactosd
// service surviving a worker panic and severed SSE streams. Every armed
// case must fire its own plan, and every registered faultpoint must fire
// somewhere in the sweep, so an injection point cannot silently fall out
// of coverage. The sweep across a process boundary (SIGKILL and restart)
// is cmd/galactosd's TestCrashRecovery.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"galactos/internal/faultpoint"
)

// chaosCase is one sweep entry: a workload plus the fault plan armed while
// it re-runs.
type chaosCase struct {
	// name identifies the case ("periodic-iso/sharded").
	name string
	// points is the fault plan armed for the faulted pass.
	points []faultpoint.Point
	// run executes the workload and returns the bitwise hash of its output.
	// It is called with the plan armed; when cleanRun is nil it is also the
	// clean pass.
	run func(ctx context.Context) (string, error)
	// cleanRun, when non-nil, replaces run for the clean pass, for cases
	// whose clean pass also prepares state the faulted pass consumes (the
	// resume case writes the checkpoints the faulted pass resumes from).
	cleanRun func(ctx context.Context) (string, error)
}

// report is one case's two passes.
type report struct {
	clean, faulted string
	// stats snapshots the armed plan's per-point counters after the faulted
	// pass.
	stats []faultpoint.Stat
}

// runCase runs c's clean pass disarmed, then its faulted pass with c's plan
// armed under seed. Plans arm globally, so cases must not overlap.
func runCase(ctx context.Context, seed int64, c chaosCase) (report, error) {
	defer faultpoint.Disable()
	faultpoint.Disable()
	clean := c.cleanRun
	if clean == nil {
		clean = c.run
	}
	var r report
	var err error
	if r.clean, err = clean(ctx); err != nil {
		return r, fmt.Errorf("clean pass: %w", err)
	}
	faultpoint.Enable(faultpoint.NewPlan(seed, c.points...))
	r.faulted, err = c.run(ctx)
	r.stats = faultpoint.Stats()
	if err != nil {
		return r, fmt.Errorf("faulted pass: %w", err)
	}
	return r, nil
}

// failure says why a case did not recover: a faulted hash that differs from
// the clean one, or an armed plan none of whose points fired (the case then
// proved nothing about them). It is empty when the case recovered.
func (r report) failure() string {
	if r.faulted != r.clean {
		return fmt.Sprintf("faulted hash %s != clean %s", r.faulted, r.clean)
	}
	var fired uint64
	for _, s := range r.stats {
		fired += s.Fired
	}
	if len(r.stats) > 0 && fired == 0 {
		return fmt.Sprintf("none of its %d armed points fired", len(r.stats))
	}
	return ""
}

// fpTest reuses an already-registered faultpoint name (declaring the same
// name twice shares one schedule entry), so the verdict test adds no
// synthetic point to the registry for the sweep's coverage check to miss.
var fpTest = faultpoint.New("core.worker.block")

// TestRunCaseVerdicts drives runCase and failure with synthetic cases: a
// workload that absorbs its injected fault is credited and its fire is
// counted, one whose output diverges under injection fails, one whose plan
// never fires fails, and a failing clean pass is an error.
func TestRunCaseVerdicts(t *testing.T) {
	point := []faultpoint.Point{{Name: fpTest.Name(), Kind: faultpoint.KindError, Count: 1}}
	rows := []struct {
		name    string
		c       chaosCase
		failure string // what failure must say, "" for a credited recovery
		err     string // the error runCase must return instead
	}{
		{name: "absorbs", c: chaosCase{points: point, run: func(context.Context) (string, error) {
			if err := fpTest.Inject(); err != nil {
				if err = fpTest.Inject(); err != nil { // the retry: Count is spent
					return "", err
				}
			}
			return "stable", nil
		}}},
		{name: "diverges", failure: "!= clean", c: chaosCase{points: point, run: func(context.Context) (string, error) {
			if fpTest.Inject() != nil {
				return "diverged", nil
			}
			return "stable", nil
		}}},
		{name: "never-fires", failure: "none of its 1 armed points fired", c: chaosCase{points: point,
			run: func(context.Context) (string, error) { return "stable", nil }}},
		{name: "clean-pass-fails", err: "clean pass", c: chaosCase{points: point,
			cleanRun: func(context.Context) (string, error) { return "", errors.New("boom") },
			run: func(context.Context) (string, error) {
				t.Error("faulted pass ran after a failed clean pass")
				return "", nil
			}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r, err := runCase(context.Background(), 1, row.c)
			if row.err != "" {
				if err == nil || !strings.Contains(err.Error(), row.err) {
					t.Fatalf("got error %v, want one containing %q", err, row.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := r.failure()
			if row.failure == "" {
				if got != "" {
					t.Fatalf("failure %q, want a credited recovery", got)
				}
				if len(r.stats) != 1 || r.stats[0].Fired != 1 {
					t.Errorf("stats %+v, want one fire recorded", r.stats)
				}
				return
			}
			if !strings.Contains(got, row.failure) {
				t.Fatalf("failure %q, want one containing %q", got, row.failure)
			}
		})
	}
	if faultpoint.Enabled() {
		t.Error("runCase left a plan armed")
	}
}

// TestSuiteRecoversEverywhere is the acceptance gate: every case of the
// sweep recovers bitwise from its own fault plan, firing at least one of
// its points, and every registered faultpoint fires somewhere in the sweep.
func TestSuiteRecoversEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos sweep (seconds of engine runs)")
	}
	const n, seed = 400, 7
	cases, err := suite(n, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fired := make(map[string]uint64)
	ran := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ran++
			r, err := runCase(context.Background(), seed, c)
			for _, s := range r.stats {
				fired[s.Name] += s.Fired
				t.Logf("%-24s fired %d of %d hits", s.Name, s.Fired, s.Hits)
			}
			if err != nil {
				t.Fatal(err)
			}
			if why := r.failure(); why != "" {
				t.Fatal(why)
			}
		})
	}
	if ran < len(cases) {
		t.Logf("coverage not checked: %d of %d cases ran", ran, len(cases))
		return
	}
	for _, name := range faultpoint.Registered() {
		if fired[name] == 0 {
			t.Errorf("faultpoint %s never fired in the sweep", name)
		}
	}
}
