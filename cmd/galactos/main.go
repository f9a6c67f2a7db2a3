// Command galactos computes the anisotropic (and isotropic) 3-point
// correlation function of a galaxy catalog: the production entry point of
// the library, mirroring the pipeline of the paper's Algorithm 1. Every run
// goes through the unified execution layer: the in-memory engine, or — when
// -shards is above 1 or -checkpoint-dir is set — the bounded-memory sharded
// pipeline that streams the catalog from disk one shard at a time.
// SIGINT/SIGTERM cancel the run cleanly: completed shard checkpoints are
// kept on disk, and rerunning the same command into the same
// -checkpoint-dir picks the run back up.
//
// Examples:
//
//	galactos -in catalog.glxc -rmax 200 -nbins 20 -lmax 10 -out zeta
//	galactos -in survey.csv -los radial -shards 4 -out zeta
//	galactos -in huge.glxc -shards 16 -checkpoint-dir ckpt -out zeta
//	galactos -in catalog.glxc -cpuprofile cpu.prof && go tool pprof -list 'engine..process(Block|Cell)' cpu.prof
//
// Outputs <out>.aniso.csv (channels zeta^m_{l1 l2}(r1, r2)) and
// <out>.iso.csv (isotropic multipoles zeta_l(r1, r2)), plus a run summary
// on stdout (pair counts, timing breakdown, estimated FLOP rate).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"galactos"
	"galactos/internal/core"
	"galactos/internal/perfmodel"
)

// main is the one exit: run returns every failure, after its deferred
// pprof.StopCPUProfile has completed the -cpuprofile file. SIGINT/SIGTERM
// cancel run's context, so an interrupt ends here too.
func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	cancel()
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "galactos: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set has already answered with
// its usage text; main exits 2 for it, as flag.ExitOnError would.
var errUsage = errors.New("usage")

// run parses args and computes one catalog, writing its report to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("galactos", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "input catalog (a .csv path holds CSV rows, any other the binary format); required")
		out     = fs.String("out", "zeta", "output prefix")
		rmax    = fs.Float64("rmax", 200, "maximum triangle side (Mpc/h)")
		rmin    = fs.Float64("rmin", 0, "minimum triangle side (Mpc/h)")
		nbins   = fs.Int("nbins", 20, "radial bins")
		lmax    = fs.Int("lmax", 10, "maximum multipole order")
		los     = fs.String("los", "plane", "line of sight: plane | radial | midpoint")
		workers = fs.Int("workers", 0, "worker threads (0 = all cores)")
		isoOnly = fs.Bool("iso-only", false, "isotropic-only mode (SE15 baseline)")
		noSelf  = fs.Bool("no-selfcount", false, "skip self-pair correction (raw kernel mode)")

		perfJSON   = fs.String("perf-json", "", "write the run record (backend, pair count, phase timings, elapsed; durations in ns) as JSON to this path")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this path (read it with go tool pprof)")

		shards    = fs.Int("shards", 1, "spatial shards; above 1 selects the sharded backend (the catalog streams from -in one shard at a time, never fully resident)")
		ckptDir   = fs.String("checkpoint-dir", "", "directory for per-shard Result checkpoints, resumed when it holds this run's (another run's are deleted); selects the sharded backend")
		keepCkpts = fs.Bool("keep-checkpoints", false, "keep per-shard checkpoints after a successful merge")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *in == "" {
		fmt.Fprintln(fs.Output(), "galactos: -in catalog is required")
		fs.Usage()
		return errUsage
	}
	// The library reads these as "use the default" (one part, all cores);
	// from the command line they are mistakes, refused before any work.
	if *shards < 1 {
		return fmt.Errorf("-shards %d: want at least 1", *shards)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d: want 0 (all cores) or more", *workers)
	}

	cfg := galactos.DefaultConfig()
	cfg.RMax = *rmax
	cfg.RMin = *rmin
	cfg.NBins = *nbins
	cfg.LMax = *lmax
	cfg.Workers = *workers
	cfg.IsotropicOnly = *isoOnly
	cfg.SelfCount = !*noSelf
	switch *los {
	case "plane":
		cfg.LOS = galactos.LOSPlaneParallel
	case "radial":
		cfg.LOS = galactos.LOSRadial
	case "midpoint":
		cfg.LOS = galactos.LOSMidpoint
	default:
		return fmt.Errorf("unknown -los %q", *los)
	}

	// The backend follows from the flags: shards or a checkpoint directory
	// select the sharded one. -keep-checkpoints acts on a checkpoint
	// directory, so without one it is refused, never dropped.
	name := "local"
	if *shards > 1 || *ckptDir != "" {
		name = "sharded"
	}
	if *keepCkpts && *ckptDir == "" {
		return errors.New("-keep-checkpoints needs -checkpoint-dir")
	}

	// Execution goes through the facade's one canonical entrypoint, which
	// reads -in itself on either backend: the Request below, serialized, is
	// also a valid galactosd job. A cancelled context stops in-flight
	// engines at their next commit unit; completed shard checkpoints stay on
	// disk.
	fmt.Fprintf(stdout, "computing %s on the %s backend\n", *in, name)
	req := galactos.Request{
		Path:   *in,
		Config: cfg,
		Backend: galactos.BackendSpec{
			Name:          name,
			Shards:        *shards,
			CheckpointDir: *ckptDir,
			Keep:          *keepCkpts,
		},
		Log: func(format string, args ...any) {
			fmt.Fprintf(stdout, "  "+format+"\n", args...)
		},
	}

	r, err := galactos.Run(ctx, req)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			msg := "interrupted"
			if *ckptDir != "" {
				msg += "; completed shard checkpoints kept in " + *ckptDir + " (rerun into it to resume)"
			}
			return errors.New(msg)
		}
		return err
	}
	res := r.Result

	if name == "sharded" {
		fmt.Fprintf(stdout, "sharded over %d units:\n", len(r.Units))
		for _, u := range r.Units {
			state := ""
			if u.Resumed {
				state = "  (resumed)"
			}
			fmt.Fprintf(stdout, "  unit %2d: owned %8d  halo %8d  pairs %12d  %v%s\n",
				u.Unit, u.NOwned, u.NHalo, u.Pairs, u.Elapsed.Round(time.Millisecond), state)
		}
	}

	fmt.Fprintf(stdout, "galaxies:      %d\n", res.NGalaxies)
	fmt.Fprintf(stdout, "primaries:     %d\n", res.NPrimaries)
	fmt.Fprintf(stdout, "pairs:         %d\n", res.Pairs)
	fmt.Fprintf(stdout, "time:          %v\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "model flops:   %.3e (%.2f GF/s sustained)\n",
		res.FlopsEstimate(), perfmodel.GF(res.FlopsEstimate()/r.Elapsed.Seconds()))
	bd := res.Timings
	fmt.Fprintf(stdout, "breakdown:     build %v | gather %v | consume %v | self %v | alm+zeta %v\n",
		bd.TreeBuild.Round(time.Millisecond), bd.Gather.Round(time.Millisecond),
		bd.Consume.Round(time.Millisecond), bd.SelfCount.Round(time.Millisecond),
		bd.AlmZeta.Round(time.Millisecond))

	if *perfJSON != "" {
		data, err := json.MarshalIndent(r, "", "  ")
		if err == nil {
			err = os.WriteFile(*perfJSON, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fmt.Errorf("writing perf report: %w", err)
		}
		fmt.Fprintf(stdout, "wrote perf report %s\n", *perfJSON)
	}

	if err := writeAniso(*out+".aniso.csv", res); err != nil {
		return err
	}
	if err := writeIso(*out+".iso.csv", res); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s.aniso.csv and %s.iso.csv\n", *out, *out)
	return nil
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
