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
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"galactos/internal/chaos"
	"galactos/internal/faultpoint"
)

// runChaos executes the sweep and exits nonzero on any failed case or
// uncovered faultpoint.
func runChaos(ctx context.Context, n int, seed int64, summaryPath string) {
	scratch, err := os.MkdirTemp("", "galactos-chaos-*")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(scratch)

	cases, err := chaos.Suite(n, seed, scratch)
	if err != nil {
		fatalf("%v", err)
	}
	registered := faultpoint.Registered()
	fmt.Printf("chaos sweep: %d case(s), n=%d, seed=%d, %d registered faultpoints\n",
		len(cases), n, seed, len(registered))

	reports := chaos.RunCases(ctx, seed, cases, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if ctx.Err() != nil {
		fatalf("interrupted after %d of %d cases", len(reports), len(cases))
	}

	failed := failedCases(reports)
	uncovered := chaos.Uncovered(reports)
	cov := chaos.Coverage(reports)
	fmt.Printf("faultpoint coverage: %d/%d registered points fired\n",
		len(registered)-len(uncovered), len(registered))
	for _, name := range registered {
		mark := "ok  "
		if cov[name] == 0 {
			mark = "MISS"
		}
		fmt.Printf("  %s %-26s fired %d\n", mark, name, cov[name])
	}

	if summaryPath != "" {
		if err := writeChaosSummary(summaryPath, n, seed, reports, registered, cov); err != nil {
			fatalf("writing chaos summary: %v", err)
		}
	}
	if len(failed) > 0 {
		fatalf("%d of %d chaos cases failed:\n  %s", len(failed), len(reports), strings.Join(failed, "\n  "))
	}
	if len(uncovered) > 0 {
		fatalf("faultpoints never fired: %s", strings.Join(uncovered, ", "))
	}
	fmt.Printf("all %d chaos case(s) recovered bitwise-identically\n", len(reports))
}

// runChaosProc executes the subprocess crash sweep: galactosd SIGKILLed at
// scheduled moments, restarted on the same state dir, and required to serve
// bitwise-identical results. Exits nonzero on any failed case.
func runChaosProc(ctx context.Context, n int, seed int64, galactosdBin, summaryPath string) {
	scratch, err := os.MkdirTemp("", "galactos-chaos-proc-*")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(scratch)

	// Without -galactosd, build the daemon fresh: the sweep must kill the
	// code under test, not whatever stale binary happens to be on PATH.
	if galactosdBin == "" {
		galactosdBin = filepath.Join(scratch, "galactosd")
		build := exec.CommandContext(ctx, "go", "build", "-o", galactosdBin, "./cmd/galactosd")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fatalf("building galactosd for the crash sweep: %v", err)
		}
	}

	fmt.Printf("subprocess crash sweep: n=%d, seed=%d, galactosd=%s\n", n, seed, galactosdBin)
	reports, err := chaos.RunProc(ctx, chaos.ProcOptions{
		N: n, Seed: seed, Scratch: scratch, Galactosd: galactosdBin,
		Logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		fatalf("%v", err)
	}
	if ctx.Err() != nil {
		fatalf("interrupted after %d cases", len(reports))
	}

	failed := failedCases(reports)
	if summaryPath != "" {
		if err := writeChaosProcSummary(summaryPath, n, seed, reports); err != nil {
			fatalf("writing crash sweep summary: %v", err)
		}
	}
	if len(failed) > 0 {
		fatalf("%d of %d crash cases failed:\n  %s", len(failed), len(reports), strings.Join(failed, "\n  "))
	}
	fmt.Printf("all %d crash case(s) recovered bitwise-identically across SIGKILL+restart\n", len(reports))
}

// failedCases names every failed case of a sweep with why it failed, one
// line each.
func failedCases(reports []chaos.Report) []string {
	var out []string
	for _, r := range reports {
		if why := failure(r); why != "" {
			out = append(out, r.Case+": "+why)
		}
	}
	return out
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

// writeChaosProcSummary appends the crash sweep as one markdown table. No
// faultpoint accounting here: the faults fire inside the killed subprocess,
// whose counters die with it.
func writeChaosProcSummary(path string, n int, seed int64, reports []chaos.Report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "### Crash sweep (SIGKILL + restart) — n=%d, seed=%d\n\n", n, seed)
	fmt.Fprintln(f, "| case | status | time | hash |")
	fmt.Fprintln(f, "|---|---|---|---|")
	for _, r := range reports {
		status := "recovered"
		if why := failure(r); why != "" {
			status = "**FAIL**: " + why
		}
		hash := r.Clean
		if len(hash) > 16 {
			hash = hash[:16]
		}
		fmt.Fprintf(f, "| %s | %s | %v | `%s` |\n",
			r.Case, status, r.Elapsed.Round(time.Millisecond), hash)
	}
	fmt.Fprintln(f)
	return f.Close()
}

// writeChaosSummary appends the sweep as two markdown tables (the format
// $GITHUB_STEP_SUMMARY renders): per-case recovery verdicts, then the
// injected-vs-recovered accounting per faultpoint.
func writeChaosSummary(path string, n int, seed int64, reports []chaos.Report, registered []string, cov map[string]uint64) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "### Chaos sweep — n=%d, seed=%d\n\n", n, seed)
	fmt.Fprintln(f, "| case | status | faults fired/hits | time | hash |")
	fmt.Fprintln(f, "|---|---|---|---|---|")
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
		fmt.Fprintf(f, "| %s | %s | %d/%d | %v | `%s` |\n",
			r.Case, status, fired, hits, r.Elapsed.Round(time.Millisecond), hash)
	}
	fmt.Fprintf(f, "\n| faultpoint | injected | recovered |\n|---|---|---|\n")
	for _, name := range registered {
		rec := fmt.Sprintf("%d", recovered[name])
		if cov[name] == 0 {
			rec = "**never fired**"
		}
		fmt.Fprintf(f, "| `%s` | %d | %s |\n", name, injected[name], rec)
	}
	fmt.Fprintln(f)
	return f.Close()
}
