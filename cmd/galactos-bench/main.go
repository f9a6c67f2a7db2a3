// Command galactos-bench regenerates every table and figure of the paper's
// evaluation (Sec. 4-5) at locally runnable scale. Each experiment prints
// the paper's reported values next to the measured/modeled ones so the
// shape of the result (who wins, by what factor, where crossovers fall) can
// be compared directly. `go test ./cmd/galactos-bench` runs every
// experiment at -scale small.
//
// Usage:
//
//	galactos-bench -exp all
//	galactos-bench -exp weak -scale large
//	galactos-bench -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"galactos"
	"galactos/internal/bruteforce"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/perfmodel"
)

// facadeRun executes one bench computation through the facade's canonical
// Run entrypoint — the same path cmd/galactos and the galactosd service
// take — so the benchmarks measure what production runs.
func facadeRun(ctx context.Context, cat *catalog.Catalog, cfg core.Config, label string) (*galactos.RunResult, error) {
	return galactos.Run(ctx, galactos.Request{Catalog: cat, Config: cfg, Label: label})
}

// scale multiplies experiment sizes: small for the tier-1 table test,
// medium for the documented EXPERIMENTS.md run, large for multi-core hosts.
var scales = map[string]float64{"small": 0.3, "medium": 1, "large": 3}

type experiment struct {
	name string
	desc string
	run  func(ctx context.Context, w io.Writer, s float64) error
}

var experiments = []experiment{
	{"table1", "Table 1: weak-scaling dataset construction", expTable1},
	{"breakdown", "Fig. 4: single-node runtime breakdown", expBreakdown},
	{"threads", "Fig. 5: thread scaling on 10k galaxies", expThreads},
	{"weak", "Fig. 6: weak scaling over simulated ranks", expWeak},
	{"strong", "Fig. 7: strong scaling over simulated ranks", expStrong},
	{"singlenode", "Sec. 5.1: kernel rate and FLOPs/pair accounting", expSingleNode},
	{"fullsystem", "Sec. 5.4: full-system accounting + extrapolation", expFullSystem},
	{"baomap", "Fig. 1 (right): BAO feature in zeta_l(r1, r2)", expBAOMap},
	{"se15", "Sec. 2.3: isotropic (SE15) vs anisotropic runtime", expSE15},
	{"crossover", "Sec. 3: O(N^2) multipole vs O(N^3) brute force", expCrossover},
	{"sharded", "Sec. 3.3: sharded out-of-core pipeline vs single shot", expSharded},
}

// main is the one exit: run returns every failure. SIGINT/SIGTERM cancel
// run's context, so an interrupt ends here too.
func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	cancel()
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "galactos-bench: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set has already answered with
// its usage text; main exits 2 for it, as flag.ExitOnError would.
var errUsage = errors.New("usage")

// run parses args and runs the selected experiments, writing their reports
// to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("galactos-bench", flag.ContinueOnError)
	var (
		exp   = fs.String("exp", "all", "experiment name or 'all'")
		scale = fs.String("scale", "medium", "small | medium | large")
		list  = fs.Bool("list", false, "list experiments")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *list {
		for _, e := range experiments {
			fmt.Fprintf(stdout, "%-12s %s\n", e.name, e.desc)
		}
		return nil
	}
	s, ok := scales[*scale]
	if !ok {
		return fmt.Errorf("unknown -scale %q (small | medium | large)", *scale)
	}
	ran := 0
	for _, e := range experiments {
		if *exp != "all" && e.name != *exp {
			continue
		}
		fmt.Fprintf(stdout, "\n=== %s — %s ===\n", e.name, e.desc)
		start := time.Now()
		if err := e.run(ctx, stdout, s); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(stdout, "--- %s done in %v ---\n", e.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment named %q (use -list)", *exp)
	}
	return nil
}

// perfConfig is the paper-shaped configuration scaled to local Rmax: full
// l_max = 10, 20 radial bins, no self-count (the paper's kernel cost model).
func perfConfig(rmax float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.RMax = rmax
	cfg.NBins = 20
	cfg.LMax = 10
	cfg.SelfCount = false
	return cfg
}

// densityCatalog generates a clustered catalog of n galaxies at the Outer
// Rim number density.
func densityCatalog(n int, seed int64) *catalog.Catalog {
	l := catalog.BoxForDensity(n)
	return catalog.Clustered(n, l, catalog.DefaultClusterParams(), seed)
}

func expTable1(ctx context.Context, w io.Writer, s float64) error {
	fmt.Fprintln(w, "paper Table 1 (verbatim targets):")
	fmt.Fprintln(w, "  nodes   galaxies      box (Mpc/h)")
	for _, r := range catalog.Table1() {
		fmt.Fprintf(w, "  %5d   %.3e     %7.1f\n", r.Nodes, float64(r.Galaxies), r.BoxL)
	}
	perNode := int(3000 * s)
	fmt.Fprintf(w, "\nlocally generated analogues (density %.4g, %d galaxies/node):\n",
		catalog.OuterRimDensity, perNode)
	fmt.Fprintln(w, "  nodes   galaxies   box (Mpc/h)   generated   density ok")
	for _, nodes := range []int{1, 2, 4, 8} {
		row := catalog.ScaledTable1Row(nodes, perNode)
		cat := catalog.GenerateTable1Dataset(row, 42)
		d := cat.Density()
		ok := d/catalog.OuterRimDensity > 0.85 && d/catalog.OuterRimDensity < 1.15
		fmt.Fprintf(w, "  %5d   %8d   %9.1f     %8d    %v\n", row.Nodes, row.Galaxies, row.BoxL, cat.Len(), ok)
	}
	return nil
}

func expBreakdown(ctx context.Context, w io.Writer, s float64) error {
	n := int(12000 * s)
	cat := densityCatalog(n, 7)
	cfg := perfConfig(18)
	run, err := facadeRun(ctx, cat, cfg, "bench-breakdown")
	if err != nil {
		return err
	}
	res := run.Result
	fr := breakdownFractions(res.Timings)
	fmt.Fprintf(w, "catalog: %d galaxies, box %.1f Mpc/h, Rmax %.0f, pairs %d\n",
		cat.Len(), cat.Box.L, cfg.RMax, res.Pairs)
	fmt.Fprintln(w, "paper Fig. 4: multipole ~55%, k-d tree build+search and reduction the rest")
	for _, k := range slices.Sorted(maps.Keys(fr)) {
		bar := strings.Repeat("#", int(fr[k]*50))
		fmt.Fprintf(w, "  %-11s %5.1f%% %s\n", k, fr[k]*100, bar)
	}
	return nil
}

func expThreads(ctx context.Context, w io.Writer, s float64) error {
	// The paper's Fig. 5 uses 10,000 Outer Rim galaxies; we use the same
	// count at the same density.
	cat := densityCatalog(10000, 9)
	cfg := perfConfig(18)
	counts := []int{1, 2, 4, 8}
	pts, err := threadScaling(ctx, cat, cfg, counts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "paper Fig. 5: 58x at 68 cores, +35% from 4x hyperthreading, 65x total")
	fmt.Fprintln(w, "  workers   time        speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "  %7d   %-10v  %.2fx\n", p.Workers, p.Elapsed.Round(time.Millisecond), p.Speedup)
	}
	fmt.Fprintf(w, "this host: GOMAXPROCS %d, NumCPU %d — speedup stops at the smaller of the two\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	return nil
}

func expWeak(ctx context.Context, w io.Writer, s float64) error {
	perRank := int(2500 * s)
	cfg := perfConfig(10)
	cfg.NBins = 10
	pts, err := rankScaling(ctx, []int{1, 2, 4, 8}, cfg, func(ranks int) *catalog.Catalog {
		return catalog.GenerateTable1Dataset(catalog.ScaledTable1Row(ranks, perRank), 11)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "paper Fig. 6: 128->8192 nodes (64x) raises time to solution by only 9%;")
	fmt.Fprintln(w, "pair imbalance < 10%")
	fmt.Fprintln(w, "  ranks   galaxies   box      node time    vs 1 rank   pair imb   prim imb")
	base := pts[0].NodeTime
	for _, p := range pts {
		fmt.Fprintf(w, "  %5d   %8d   %6.1f   %-10v   %+6.1f%%     %.3f      %.3f\n",
			p.Ranks, p.Galaxies, p.BoxL, p.NodeTime.Round(time.Millisecond),
			(float64(p.NodeTime)/float64(base)-1)*100, p.PairImbalance, p.PrimaryImbalance)
	}
	return nil
}

func expStrong(ctx context.Context, w io.Writer, s float64) error {
	n := int(16000 * s)
	cat := densityCatalog(n, 13)
	cfg := perfConfig(10)
	cfg.NBins = 10
	ranks := []int{1, 2, 4, 8}
	pts, err := rankScaling(ctx, ranks, cfg, func(int) *catalog.Catalog { return cat })
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "paper Fig. 7: 64x more nodes -> 27x speedup (imbalance up to 60% at depth)")
	fmt.Fprintln(w, "  ranks   node time    speedup   ideal   pair imb")
	base := pts[0].NodeTime
	for _, p := range pts {
		fmt.Fprintf(w, "  %5d   %-10v   %5.2fx   %5.2fx   %.3f\n",
			p.Ranks, p.NodeTime.Round(time.Millisecond),
			float64(base)/float64(p.NodeTime), float64(p.Ranks)/float64(pts[0].Ranks),
			p.PairImbalance)
	}
	return nil
}

func expSingleNode(ctx context.Context, w io.Writer, s float64) error {
	n := int(20000 * s)
	cat := densityCatalog(n, 15)
	cfg := perfConfig(20)
	run, err := facadeRun(ctx, cat, cfg, "bench-singlenode")
	if err != nil {
		return err
	}
	res := run.Result
	rate := float64(res.Pairs) / run.Elapsed.Seconds()
	fmt.Fprintf(w, "catalog: %d galaxies at Outer Rim density, %d pairs\n", cat.Len(), res.Pairs)
	fmt.Fprintf(w, "paper Sec. 5.1 (68-core 1.4 GHz Xeon Phi, AVX-512):\n")
	fmt.Fprintf(w, "  multipole kernel: 1017 GF/s = 39%% of peak; 609 FLOPs/pair total\n")
	fmt.Fprintf(w, "this host (Go, single node):\n")
	fmt.Fprintf(w, "  pair rate:        %.3e pairs/s\n", rate)
	fmt.Fprintf(w, "  paper FLOP model: %.2f GF/s (%d flops/pair)\n",
		perfmodel.GF(rate*perfmodel.PaperFlopsPerPairTotal), perfmodel.PaperFlopsPerPairTotal)
	fmt.Fprintf(w, "  our FLOP model:   %.2f GF/s (%.0f flops/pair: this kernel's count + the paper's 37 of tree search)\n",
		perfmodel.GF(res.FlopsEstimate()/run.Elapsed.Seconds()), res.FlopsEstimate()/float64(max(res.Pairs, 1)))
	fmt.Fprintf(w, "  kernel fraction:  %.0f%% of phase time (paper: 55%%)\n",
		100*breakdownFractions(res.Timings)["consume"])
	return nil
}

func expFullSystem(ctx context.Context, w io.Writer, s float64) error {
	fmt.Fprintln(w, "paper Sec. 5.4 accounting identities, regenerated from the cost model:")
	fmt.Fprintln(w, "  quantity                              paper     model")
	for _, row := range perfmodel.FullSystemAccounting() {
		fmt.Fprintf(w, "  %-36s %7.2f   %7.2f %s\n", row.Label, row.Paper, row.Predicted, row.Unit)
	}
	// Calibrated extrapolation: what would THIS implementation need on
	// paper-scale hardware counts? The calibration catalog is 15000·s
	// galaxies at the Outer Rim density, or more when that box is too small
	// to hold RMax: the periodic engine needs a side above 2·RMax plus its
	// float32 search slack, a few 2⁻²⁰ of the box, which 1 % covers.
	cfg := perfConfig(20)
	side := 2 * cfg.RMax * 1.01
	cat := densityCatalog(max(int(15000*s), int(math.Ceil(catalog.OuterRimDensity*side*side*side))), 17)
	cal, err := calibrateHost(ctx, cat, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nlocal calibration: %.3e pairs/s per node-equivalent\n", cal.PairsPerSec)
	fmt.Fprintln(w, "extrapolated full Outer Rim (1.951e9 galaxies, Rmax 200, 8.17e15 pairs):")
	for _, nodes := range []int{128, 1024, 9636} {
		d, err := perfmodel.FullSystemEstimate(1951000000, catalog.OuterRimDensity, 200, nodes, cal)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %5d nodes of this host: %10.0f s  (paper on 9636 Xeon Phi: 982.4 s)\n",
			nodes, d.Seconds())
	}
	return nil
}

func expBAOMap(ctx context.Context, w io.Writer, s float64) error {
	// A BAO-shell catalog at reduced density with boosted shell occupancy:
	// the feature, not the noise floor, is the target (the paper's figure
	// integrates 2e9 galaxies; see DESIGN.md substitutions).
	n := int(8000 * s)
	const l = 420.0
	params := catalog.DefaultBAOParams()
	params.FracShell = 0.8
	params.PerCenter = 40
	params.ShellWidth = 4
	cat := catalog.BAOShells(n, l, params, 19)
	cfg := core.DefaultConfig()
	cfg.RMax = 130
	cfg.NBins = 13
	cfg.LMax = 4
	cfg.IsotropicOnly = true
	cfg.SelfCount = false
	run, err := facadeRun(ctx, cat, cfg, "bench-baomap")
	if err != nil {
		return err
	}
	res := run.Result
	// Normalize each diagonal by the shell volumes (raw sums scale as
	// r1^2 r2^2) to expose the feature, and compare with a random catalog.
	rnd := catalog.Uniform(cat.Len(), l, 23)
	runR, err := facadeRun(ctx, rnd, cfg, "bench-baomap-random")
	if err != nil {
		return err
	}
	resR := runR.Result
	fmt.Fprintln(w, "paper Fig. 1 (right): zeta excess at r1 ~ r2 ~ acoustic scale (~105 Mpc/h)")
	fmt.Fprintln(w, "l=0 diagonal, BAO catalog / random catalog (1.00 = no clustering):")
	fmt.Fprintln(w, "  r (Mpc/h)   ratio")
	ratios := make([]float64, cfg.NBins)
	for b := 0; b < cfg.NBins; b++ {
		ratios[b] = res.IsoZeta(0, b, b) / resR.IsoZeta(0, b, b)
		bar := strings.Repeat("#", min(max(int((ratios[b]-0.95)*200), 0), 60))
		fmt.Fprintf(w, "  %7.1f    %6.3f %s\n", res.Bins.Center(b), ratios[b], bar)
	}
	fmt.Fprintln(w, localBump(ratios, res.Bins.Center))
	return nil
}

// localBump reports the acoustic feature, a local bump on a declining
// small-scale clustering background: each interior bin at r >= 60 Mpc/h
// scores its ratio less the mean of its neighbours', and the best positive
// score wins. A series with no such bin reports that no bump was found.
func localBump(ratios []float64, center func(int) float64) string {
	peakBin, peakScore := -1, 0.0
	for b := 1; b < len(ratios)-1; b++ {
		if center(b) < 60 {
			continue
		}
		if score := ratios[b] - (ratios[b-1]+ratios[b+1])/2; score > peakScore {
			peakScore, peakBin = score, b
		}
	}
	if peakBin < 0 {
		return "no local bump over the trend at r >= 60 Mpc/h (injected acoustic scale: 105)"
	}
	return fmt.Sprintf("local bump at r = %.0f Mpc/h, height %+.3f over trend (injected acoustic scale: 105)",
		center(peakBin), peakScore)
}

func expSE15(ctx context.Context, w io.Writer, s float64) error {
	n := int(12000 * s)
	cat := densityCatalog(n, 21)
	iso, aniso, err := se15Comparison(ctx, cat, perfConfig(18))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "paper Sec. 2.3: SE15 measured the isotropic 3PCF of 642,619 galaxies in")
	fmt.Fprintln(w, "170 s on 6 cores; the anisotropic channels are strictly more information.")
	fmt.Fprintf(w, "  isotropic-only (SE15 mode): %v\n", iso.Round(time.Millisecond))
	fmt.Fprintf(w, "  full anisotropic:           %v (%.2fx)\n",
		aniso.Round(time.Millisecond), float64(aniso)/float64(iso))
	return nil
}

func expCrossover(ctx context.Context, w io.Writer, s float64) error {
	fmt.Fprintln(w, "O(N^2) multipole engine vs O(N^3) brute force (same answer, Sec. 3.1):")
	fmt.Fprintln(w, "  N      multipole   brute force   ratio")
	cfg := core.DefaultConfig()
	cfg.RMax = 50
	cfg.NBins = 5
	cfg.LMax = 4
	for _, n := range []int{50, 100, 200, 400} {
		nn := max(int(float64(n)*s), 20)
		cat := catalog.Clustered(nn, 160, catalog.DefaultClusterParams(), int64(nn))
		run, err := facadeRun(ctx, cat, cfg, "bench-crossover")
		if err != nil {
			return err
		}
		fast := run.Elapsed
		start := time.Now()
		if _, err := bruteforce.Aniso(cat, cfg); err != nil {
			return err
		}
		brute := time.Since(start)
		fmt.Fprintf(w, "  %-5d  %-10v  %-12v  %.1fx\n", nn,
			fast.Round(time.Microsecond), brute.Round(time.Microsecond),
			float64(brute)/float64(fast))
	}
	fmt.Fprintln(w, "the ratio grows ~linearly in N: the complexity separation of the paper")
	return nil
}

func expSharded(ctx context.Context, w io.Writer, s float64) error {
	// The sharded pipeline trades a little wall-clock (halo copies are
	// computed once per shard instead of shared) for a bounded engine
	// footprint: only one shard's galaxies, neighbor index and accumulators
	// are live at a time. The multipoles must match single shot to rounding
	// — shards keep the source's box and coordinates, so every primary sees
	// the pairs, bins and line of sight of the single-shot run. Sharding
	// pays off when RMax is small against the box (local shards, thin
	// halos) — the paper's regime (200 vs 3000 Mpc/h) — so this experiment
	// uses a sparse box of 12x RMax rather than the Outer Rim density, and
	// a moderate LMax so engine state rather than the Result dominates.
	n := int(40000 * s)
	cfg := perfConfig(18)
	cfg.LMax = 6
	cfg.NBins = 10
	cat := catalog.Clustered(n, 12*cfg.RMax, catalog.DefaultClusterParams(), 33)
	defer debug.SetGCPercent(debug.SetGCPercent(20)) // peaks ~ live set, not garbage

	stop := heapSampler()
	run, err := facadeRun(ctx, cat, cfg, "bench-sharded-single")
	if err != nil {
		return err
	}
	single, singleTime := run.Result, run.Elapsed
	singleHeap := stop()

	fmt.Fprintf(w, "catalog: %d galaxies, box %.1f Mpc/h, Rmax %.0f\n", cat.Len(), cat.Box.L, cfg.RMax)
	fmt.Fprintln(w, "  mode               time        peak heap   max |diff| vs single")
	fmt.Fprintf(w, "  single shot        %-10v  %6.1f MB   —\n",
		singleTime.Round(time.Millisecond), float64(singleHeap)/(1<<20))

	dir, err := os.MkdirTemp("", "galactos-sharded-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Through the facade, exactly as `galactos -backend sharded` does.
	for _, nshards := range []int{4, 8} {
		stop := heapSampler()
		srun, err := galactos.Run(ctx, galactos.Request{
			Catalog: cat, Config: cfg, Label: "bench-sharded",
			Backend: galactos.BackendSpec{Name: "sharded", Shards: nshards,
				CheckpointDir: filepath.Join(dir, "ck")},
		})
		if err != nil {
			return err
		}
		peak := stop()
		fmt.Fprintf(w, "  %2d shards (ckpt)   %-10v  %6.1f MB   %.3e\n",
			nshards, srun.Elapsed.Round(time.Millisecond), float64(peak)/(1<<20),
			srun.Result.MaxAbsDiff(single))
	}

	fmt.Fprintln(w, "every peak includes the generated catalog, which this experiment keeps")
	fmt.Fprintln(w, "resident; the sharded excess over it stays near one shard's engine state")
	fmt.Fprintln(w, "as shards grow, and a run given a catalog path never holds the catalog.")
	return nil
}
