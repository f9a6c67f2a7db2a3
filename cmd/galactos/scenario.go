// Scenario mode: `galactos -scenario list|all|<name>` runs the survey-science
// scenario registry (internal/scenario) end-to-end through the selected
// execution backend, checks every registered invariant, and prints a
// pass/fail table with the bitwise outcome hash. With -scenario-summary the
// same table is appended to a file as markdown — the CI scenario-service
// job points it at $GITHUB_STEP_SUMMARY.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"galactos/internal/exec"
	"galactos/internal/scenario"
	"galactos/internal/sphharm"
)

// listScenarios prints the registry: one line per scenario, indented lines
// for its invariants.
func listScenarios(stdout io.Writer) {
	for _, s := range scenario.All() {
		fmt.Fprintf(stdout, "%-22s %s\n", s.Name, s.Desc)
		for _, inv := range s.Invariants {
			fmt.Fprintf(stdout, "    %-22s %s\n", inv.Name, inv.Desc)
		}
	}
}

// scenarioRow is one finished (or failed) scenario run, for the stdout table
// and the markdown summary.
type scenarioRow struct {
	name    string
	n       int
	pairs   uint64
	inv     int
	elapsed time.Duration
	hash    string
	err     error
}

// runScenarios executes the selected registry entries on the backend spec
// and fails if any scenario errors or violates an invariant. Every
// scenario is attempted even after a failure, so one broken recipe does not
// mask the rest of the table.
func runScenarios(ctx context.Context, stdout io.Writer, spec exec.Spec, sel string, n int, seed int64, summaryPath string) error {
	scens := scenario.All()
	if sel != "all" {
		s, err := scenario.Get(sel)
		if err != nil {
			return err
		}
		scens = []*scenario.Scenario{s}
	}
	fmt.Fprintf(stdout, "scenario registry: %d scenario(s), backend %s, n=%d, seed=%d, kernel %s\n",
		len(scens), spec.Name, n, seed, sphharm.LaneDispatch())

	rows := make([]scenarioRow, 0, len(scens))
	failures := 0
	for _, s := range scens {
		row := scenarioRow{name: s.Name, inv: len(s.Invariants)}
		o, err := s.RunChecked(ctx, spec, n, seed)
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted during scenario %s", s.Name)
		}
		if o != nil {
			row.n = o.N
			row.elapsed = o.Elapsed
			row.hash = o.GoldenHash()
			if o.Result != nil {
				row.pairs = o.Result.Pairs
			}
		}
		row.err = err
		if err != nil {
			failures++
			fmt.Fprintf(stdout, "FAIL %-22s %v\n", s.Name, err)
		} else {
			fmt.Fprintf(stdout, "ok   %-22s n=%-6d pairs=%-10d inv=%d  %8v  %s\n",
				s.Name, row.n, row.pairs, row.inv,
				row.elapsed.Round(time.Millisecond), row.hash[:16])
		}
		rows = append(rows, row)
	}
	if summaryPath != "" {
		if err := writeScenarioSummary(summaryPath, spec.Name, n, seed, rows); err != nil {
			return fmt.Errorf("writing scenario summary: %w", err)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failures, len(rows))
	}
	fmt.Fprintf(stdout, "all %d scenario(s) passed\n", len(rows))
	return nil
}

// writeScenarioSummary appends the run as a markdown table (the format
// $GITHUB_STEP_SUMMARY renders).
func writeScenarioSummary(path, backend string, n int, seed int64, rows []scenarioRow) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "### Scenario smoke — backend %s, n=%d, seed=%d, kernel %s\n\n",
		backend, n, seed, sphharm.LaneDispatch())
	fmt.Fprintln(f, "| scenario | status | n | pairs | invariants | time | hash |")
	fmt.Fprintln(f, "|---|---|---|---|---|---|---|")
	for _, r := range rows {
		status := "pass"
		if r.err != nil {
			status = "**FAIL**: " + r.err.Error()
		}
		hash := r.hash
		if len(hash) > 16 {
			hash = hash[:16]
		}
		fmt.Fprintf(f, "| %s | %s | %d | %d | %d | %v | `%s` |\n",
			r.name, status, r.n, r.pairs, r.inv, r.elapsed.Round(time.Millisecond), hash)
	}
	fmt.Fprintln(f)
	return f.Close()
}
