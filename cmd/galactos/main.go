// Command galactos computes the anisotropic (and isotropic) 3-point
// correlation function of a galaxy catalog: the production entry point of
// the library, mirroring the pipeline of the paper's Algorithm 1. Every run
// goes through the unified execution layer (-backend): the in-memory
// engine, or the bounded-memory sharded pipeline that streams the catalog
// from disk one shard at a time.
// SIGINT/SIGTERM cancel the run cleanly: completed shard checkpoints are
// kept on disk so -resume can pick the run back up.
//
// Examples:
//
//	galactos -in catalog.glxc -rmax 200 -nbins 20 -lmax 10 -out zeta
//	galactos -in survey.csv -los radial -backend sharded -shards 4 -out zeta
//	galactos -in huge.glxc -backend sharded -shards 16 -checkpoint-dir ckpt -resume -out zeta
//	galactos -scenario list
//	galactos -scenario all -n 900 -seed 1 -backend sharded -shards 2
//	galactos -chaos -n 500 -seed 1
//	galactos -in catalog.glxc -cpuprofile cpu.prof && go tool pprof -list 'engine..process(Block|Cell)' cpu.prof
//
// Scenario mode (-scenario) runs the survey-science scenario registry
// instead of a catalog file: each registry entry generates its pinned seeded
// catalog, runs end-to-end through the selected backend, and is checked
// against its invariants; -scenario-summary appends a markdown pass/fail
// table (for $GITHUB_STEP_SUMMARY).
//
// Chaos mode (-chaos) runs the fault-injection sweep (internal/chaos): every
// case pins a clean run's bitwise hash, re-runs under a seeded faultpoint
// plan, and must reproduce the hash exactly; the sweep fails if any
// registered faultpoint never fired. Subprocess chaos mode (-chaos-proc)
// extends the same verdict across a process boundary: it launches galactosd
// as a real subprocess on a throwaway -state-dir, SIGKILLs it mid-job, and
// requires the restarted server to serve bitwise-identical results from
// journal replay, shard checkpoints, and the persistent cache. See
// DESIGN.md, "Failure semantics" and "Durability".
//
// Outputs <out>.aniso.csv (channels zeta^m_{l1 l2}(r1, r2)) and
// <out>.iso.csv (isotropic multipoles zeta_l(r1, r2)), plus a run summary
// on stdout (pair counts, timing breakdown, estimated FLOP rate).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"galactos"
	"galactos/internal/core"
	"galactos/internal/perfmodel"
)

func main() {
	var (
		in      = flag.String("in", "", "input catalog (binary or .csv); required")
		out     = flag.String("out", "zeta", "output prefix")
		rmax    = flag.Float64("rmax", 200, "maximum triangle side (Mpc/h)")
		rmin    = flag.Float64("rmin", 0, "minimum triangle side (Mpc/h)")
		nbins   = flag.Int("nbins", 20, "radial bins")
		lmax    = flag.Int("lmax", 10, "maximum multipole order")
		los     = flag.String("los", "plane", "line of sight: plane | radial | midpoint")
		workers = flag.Int("workers", 0, "worker threads (0 = all cores)")
		isoOnly = flag.Bool("iso-only", false, "isotropic-only mode (SE15 baseline)")
		noSelf  = flag.Bool("no-selfcount", false, "skip self-pair correction (raw kernel mode)")
		bucket  = flag.Int("bucket", 128, "pair bucket size")

		backend = flag.String("backend", "", "execution backend: local | sharded (default: inferred from -shards/-checkpoint-dir)")

		perfJSON   = flag.String("perf-json", "", "write a machine-readable perfstat report (pairs/sec, FLOP rate, phase breakdown) to this path")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path (read it with go tool pprof)")

		shards    = flag.Int("shards", 1, "spatial shards (sharded backend: the catalog streams from -in one shard at a time, never fully resident)")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for per-shard Result checkpoints (sharded backend)")
		resume    = flag.Bool("resume", false, "reuse valid checkpoints found in -checkpoint-dir")
		keepCkpts = flag.Bool("keep-checkpoints", false, "keep per-shard checkpoints after a successful merge")

		scen        = flag.String("scenario", "", "run the scenario registry instead of a catalog: list | all | <name>")
		scenN       = flag.Int("n", 900, "scenario catalog size (scenario/chaos mode)")
		scenSeed    = flag.Int64("seed", 1, "scenario catalog seed (scenario/chaos mode)")
		scenSummary = flag.String("scenario-summary", "", "append a markdown pass/fail table to this file (scenario mode)")

		chaosMode    = flag.Bool("chaos", false, "run the chaos sweep: fault-injected runs must reproduce clean runs bitwise")
		chaosProc    = flag.Bool("chaos-proc", false, "run the subprocess crash sweep: galactosd is SIGKILLed mid-job and must recover bitwise after restart")
		galactosdBin = flag.String("galactosd", "", "path to the galactosd binary (chaos-proc mode; default: go build it into a temp dir)")
		chaosSummary = flag.String("chaos-summary", "", "append the chaos sweep's markdown tables to this file (chaos mode)")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *scen == "list" {
		listScenarios()
		return
	}
	if *chaosMode || *chaosProc {
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		if *chaosProc {
			runChaosProc(ctx, *scenN, *scenSeed, *galactosdBin, *chaosSummary)
		} else {
			runChaos(ctx, *scenN, *scenSeed, *chaosSummary)
		}
		return
	}
	if *scen == "" && *in == "" {
		fmt.Fprintln(os.Stderr, "galactos: -in catalog is required (or -scenario)")
		flag.Usage()
		pprof.StopCPUProfile()
		os.Exit(2)
	}

	cfg := galactos.DefaultConfig()
	cfg.RMax = *rmax
	cfg.RMin = *rmin
	cfg.NBins = *nbins
	cfg.LMax = *lmax
	cfg.Workers = *workers
	cfg.IsotropicOnly = *isoOnly
	cfg.SelfCount = !*noSelf
	cfg.BucketSize = *bucket
	switch *los {
	case "plane":
		cfg.LOS = galactos.LOSPlaneParallel
	case "radial":
		cfg.LOS = galactos.LOSRadial
	case "midpoint":
		cfg.LOS = galactos.LOSMidpoint
	default:
		fatalf("unknown -los %q", *los)
	}

	// Backend selection: explicit -backend wins; otherwise the sharded
	// flags imply it (-shards/-checkpoint-dir -> sharded). A
	// contradiction is an error, never a silent drop: a user who asked for
	// shards must not get a fully-resident local run.
	name := *backend
	if name == "" {
		name = "local"
		if *shards > 1 || *ckptDir != "" {
			name = "sharded"
		}
	}
	if name != "sharded" && (*shards > 1 || *resume || *keepCkpts || *ckptDir != "") {
		fatalf("-shards, -resume, -keep-checkpoints and -checkpoint-dir require the sharded backend (got -backend %s)", name)
	}
	spec := galactos.BackendSpec{
		Name:          name,
		Shards:        *shards,
		CheckpointDir: *ckptDir,
		Resume:        *resume,
		Keep:          *keepCkpts,
	}
	b, err := spec.Backend()
	if err != nil {
		fatalf("%v", err)
	}

	// SIGINT/SIGTERM cancel the context: in-flight engines stop at their
	// next commit unit, completed shard checkpoints stay on disk.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *scen != "" {
		runScenarios(ctx, b, *scen, *scenN, *scenSeed, *scenSummary)
		return
	}

	// The sharded backend never materializes the catalog; the local one
	// loads it up front. Execution goes through the facade's one
	// canonical entrypoint: the Request below, serialized, is also a valid
	// galactosd job.
	req := galactos.Request{
		Config:  cfg,
		Backend: spec,
		Label:   "galactos-run",
		Log: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	}
	if name == "sharded" {
		fmt.Printf("streaming %s (catalog never fully resident)\n", *in)
		req.Path = *in
	} else {
		cat, err := galactos.LoadCatalog(*in)
		if err != nil {
			fatalf("loading %s: %v", *in, err)
		}
		fmt.Printf("loaded %d galaxies (box %.1f Mpc/h)\n", cat.Len(), cat.Box.L)
		req.Catalog = cat
	}

	run, err := galactos.Run(ctx, req)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			msg := "interrupted"
			if *ckptDir != "" {
				msg += "; completed shard checkpoints kept in " + *ckptDir + " (rerun with -resume)"
			}
			fatalf("%s", msg)
		}
		fatalf("%v", err)
	}
	res := run.Result

	if name != "local" {
		fmt.Printf("%s over %d units:\n", b.Name(), len(run.Units))
		for _, u := range run.Units {
			state := ""
			if u.Resumed {
				state = "  (resumed)"
			}
			fmt.Printf("  unit %2d: owned %8d  halo %8d  pairs %12d  %v%s\n",
				u.Unit, u.NOwned, u.NHalo, u.Pairs, u.Elapsed.Round(time.Millisecond), state)
		}
	}

	fmt.Printf("primaries:     %d\n", res.NPrimaries)
	fmt.Printf("pairs:         %d\n", res.Pairs)
	fmt.Printf("time:          %v\n", run.Elapsed.Round(time.Millisecond))
	fmt.Printf("model flops:   %.3e (%.2f GF/s sustained)\n",
		res.FlopsEstimate(), perfmodel.GF(res.FlopsEstimate()/run.Elapsed.Seconds()))
	bd := res.Timings
	fmt.Printf("breakdown:     build %v | gather %v | consume %v | self %v | alm+zeta %v\n",
		bd.TreeBuild.Round(time.Millisecond), bd.Gather.Round(time.Millisecond),
		bd.Consume.Round(time.Millisecond), bd.SelfCount.Round(time.Millisecond),
		bd.AlmZeta.Round(time.Millisecond))

	if *perfJSON != "" {
		if err := run.Perf.WriteJSON(*perfJSON); err != nil {
			fatalf("writing perf report: %v", err)
		}
		fmt.Printf("wrote perf report %s (%.3e pairs/s)\n", *perfJSON, run.Perf.PairsPerSec)
	}

	if err := writeAniso(*out+".aniso.csv", res); err != nil {
		fatalf("%v", err)
	}
	if err := writeIso(*out+".iso.csv", res); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s.aniso.csv and %s.iso.csv\n", *out, *out)
}

// writeAniso dumps every canonical channel: l1,l2,m,b1,b2,r1,r2,re,im.
func writeAniso(path string, res *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# l1,l2,m,b1,b2,r1,r2,re,im")
	for _, c := range res.Combos.Combos {
		for b1 := 0; b1 < res.Bins.N; b1++ {
			for b2 := 0; b2 < res.Bins.N; b2++ {
				v := res.ZetaM(c.L1, c.L2, c.M, b1, b2)
				fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.3f,%.3f,%.8e,%.8e\n",
					c.L1, c.L2, c.M, b1, b2, res.Bins.Center(b1), res.Bins.Center(b2),
					real(v), imag(v))
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeIso dumps the isotropic multipoles: l,b1,b2,r1,r2,zeta.
func writeIso(path string, res *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# l,b1,b2,r1,r2,zeta")
	for l := 0; l <= res.LMax; l++ {
		for b1 := 0; b1 < res.Bins.N; b1++ {
			for b2 := 0; b2 < res.Bins.N; b2++ {
				fmt.Fprintf(w, "%d,%d,%d,%.3f,%.3f,%.8e\n",
					l, b1, b2, res.Bins.Center(b1), res.Bins.Center(b2),
					res.IsoZeta(l, b1, b2))
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fatalf reports the error and exits. os.Exit skips main's deferred calls,
// so the -cpuprofile file is completed here (a no-op when none was started);
// SIGINT ends here too, as a cancelled context.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "galactos: "+format+"\n", args...)
	pprof.StopCPUProfile()
	os.Exit(1)
}
