// Chaos mode: `galactos -chaos` runs the full-stack chaos sweep
// (internal/chaos): every case pins a clean bitwise golden hash, re-runs
// under a seeded fault plan, and must reproduce the hash exactly; the sweep
// also fails if any registered faultpoint never fired, so injection points
// cannot silently fall out of coverage. With -chaos-summary the per-case
// table and the injected-vs-recovered faultpoint table are appended to a
// file as markdown — the CI chaos-smoke job points it at
// $GITHUB_STEP_SUMMARY.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"galactos/internal/chaos"
	"galactos/internal/faultpoint"
)

// runChaos executes the sweep and fails on any failed case or uncovered
// faultpoint.
func runChaos(ctx context.Context, stdout io.Writer, n int, seed int64, summaryPath string) error {
	scratch, err := os.MkdirTemp("", "galactos-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	cases, err := chaos.Suite(n, seed, scratch)
	if err != nil {
		return err
	}
	registered := faultpoint.Registered()
	fmt.Fprintf(stdout, "chaos sweep: %d case(s), n=%d, seed=%d, %d registered faultpoints\n",
		len(cases), n, seed, len(registered))

	reports := chaos.RunCases(ctx, seed, cases, func(format string, args ...any) {
		fmt.Fprintf(stdout, format+"\n", args...)
	})
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted after %d of %d cases", len(reports), len(cases))
	}

	uncovered := chaos.Uncovered(reports)
	cov := chaos.Coverage(reports)
	fmt.Fprintf(stdout, "faultpoint coverage: %d/%d registered points fired\n",
		len(registered)-len(uncovered), len(registered))
	for _, name := range registered {
		mark := "ok  "
		if cov[name] == 0 {
			mark = "MISS"
		}
		fmt.Fprintf(stdout, "  %s %-26s fired %d\n", mark, name, cov[name])
	}

	if err := sweepVerdict(summaryPath, fmt.Sprintf("Chaos sweep — n=%d, seed=%d", n, seed), "chaos", reports); err != nil {
		return err
	}
	if len(uncovered) > 0 {
		return fmt.Errorf("faultpoints never fired: %s", strings.Join(uncovered, ", "))
	}
	fmt.Fprintf(stdout, "all %d chaos case(s) recovered bitwise-identically\n", len(reports))
	return nil
}

// runChaosProc executes the subprocess crash sweep: galactosd SIGKILLed at
// scheduled moments, restarted on the same state dir, and required to serve
// bitwise-identical results. Fails on any failed case.
func runChaosProc(ctx context.Context, stdout io.Writer, n int, seed int64, galactosdBin, summaryPath string) error {
	scratch, err := os.MkdirTemp("", "galactos-chaos-proc-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	// Without -galactosd, build the daemon fresh: the sweep must kill the
	// code under test, not whatever stale binary happens to be on PATH.
	if galactosdBin == "" {
		galactosdBin = filepath.Join(scratch, "galactosd")
		build := exec.CommandContext(ctx, "go", "build", "-o", galactosdBin, "./cmd/galactosd")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building galactosd for the crash sweep: %w", err)
		}
	}

	fmt.Fprintf(stdout, "subprocess crash sweep: n=%d, seed=%d, galactosd=%s\n", n, seed, galactosdBin)
	reports, err := chaos.RunProc(ctx, chaos.ProcOptions{
		N: n, Seed: seed, Scratch: scratch, Galactosd: galactosdBin,
		Logf: func(format string, args ...any) { fmt.Fprintf(stdout, format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted after %d cases", len(reports))
	}

	if err := sweepVerdict(summaryPath, fmt.Sprintf("Crash sweep (SIGKILL + restart) — n=%d, seed=%d", n, seed), "crash", reports); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "all %d crash case(s) recovered bitwise-identically across SIGKILL+restart\n", len(reports))
	return nil
}

// sweepVerdict is the tail both sweeps share: append the markdown summary
// when summaryPath is set, then fail naming every failed case with why it
// failed, one line each.
func sweepVerdict(summaryPath, title, kind string, reports []chaos.Report) error {
	if summaryPath != "" {
		if err := writeChaosSummary(summaryPath, title, reports); err != nil {
			return fmt.Errorf("writing %s summary: %w", kind, err)
		}
	}
	var failed []string
	for _, r := range reports {
		if why := failure(r); why != "" {
			failed = append(failed, r.Case+": "+why)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d %s cases failed:\n  %s", len(failed), len(reports), kind, strings.Join(failed, "\n  "))
	}
	return nil
}

// failure says why r failed — its error, or its clean and faulted hashes
// when they differ — and is empty when it recovered.
func failure(r chaos.Report) string {
	switch {
	case r.Err != nil:
		return r.Err.Error()
	case !r.Match:
		return fmt.Sprintf("hash mismatch: clean %s, faulted %s", r.Clean, r.Faulted)
	}
	return ""
}

// writeChaosSummary appends a sweep as markdown (the format
// $GITHUB_STEP_SUMMARY renders): per-case recovery verdicts, then — when
// the cases armed in-process faultpoints — the injected-vs-recovered
// accounting per faultpoint. The crash sweep has no such table: its faults
// fire inside the killed subprocess, whose counters die with it.
func writeChaosSummary(path, title string, reports []chaos.Report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	armed := slices.ContainsFunc(reports, func(r chaos.Report) bool { return len(r.Stats) > 0 })
	fmt.Fprintf(f, "### %s\n\n", title)
	if armed {
		fmt.Fprintln(f, "| case | status | faults fired/hits | time | hash |")
		fmt.Fprintln(f, "|---|---|---|---|---|")
	} else {
		fmt.Fprintln(f, "| case | status | time | hash |")
		fmt.Fprintln(f, "|---|---|---|---|")
	}
	injected := make(map[string]uint64)
	recovered := make(map[string]uint64)
	for _, r := range reports {
		status := "recovered"
		if why := failure(r); why != "" {
			status = "**FAIL**: " + why
		}
		var fired, hits uint64
		for _, s := range r.Stats {
			fired += s.Fired
			hits += s.Hits
			injected[s.Name] += s.Fired
			if !r.Failed() {
				recovered[s.Name] += s.Fired
			}
		}
		hash := r.Clean
		if len(hash) > 16 {
			hash = hash[:16]
		}
		faults := ""
		if armed {
			faults = fmt.Sprintf(" %d/%d |", fired, hits)
		}
		fmt.Fprintf(f, "| %s | %s |%s %v | `%s` |\n",
			r.Case, status, faults, r.Elapsed.Round(time.Millisecond), hash)
	}
	if armed {
		fmt.Fprintf(f, "\n| faultpoint | injected | recovered |\n|---|---|---|\n")
		for _, name := range faultpoint.Registered() {
			rec := fmt.Sprintf("%d", recovered[name])
			if injected[name] == 0 {
				rec = "**never fired**"
			}
			fmt.Fprintf(f, "| `%s` | %d | %s |\n", name, injected[name], rec)
		}
	}
	fmt.Fprintln(f)
	return f.Close()
}
