// Command bench is the repository's benchmark: four single-worker workloads,
// each one process, each reporting the end-to-end metrics named in
// ../BENCHMARK.json and, with -trace 1, the per-layer metrics. See README.md.
//
//	bash bench/run.sh -workload aniso_box -seed 1 -seconds 25 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	updateGolden bool
	// Only the tests set the rest. slices, when positive, fixes the number
	// of timed slices instead of filling seconds; scale multiplies every
	// workload's catalog size (the metrics are defined at 1); outDir holds
	// scratch and trace files.
	slices int
	scale  float64
	outDir string
}

func main() {
	o := options{scale: 1, outDir: "out"}
	var trace, runs int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "one of aniso_box, iso_survey, stream_sharded, service_mix")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "input seed; the golden digest is checked on the default")
	flag.Float64Var(&o.seconds, "seconds", 27, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite "+goldenFile+" for this workload")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the workload as the driver does, two sets of -runs, and compare them")
	flag.IntVar(&runs, "runs", 10, "runs per set for -selfcheck")
	flag.Parse()
	o.trace = trace != 0

	if _, ok := workloadWhy[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v)\n", o.workload, workloadOrder)
		os.Exit(2)
	}
	if selfcheck {
		if err := runSelfcheck(o, runs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one workload in this process and returns its report. All
// scratch lives in one directory under o.outDir, removed on return.
func run(o options) (rep *report, err error) {
	if err := pinEnvironment(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}

	start := time.Now()
	var w workload
	if spec, ok := engineSpecs[o.workload]; ok {
		w, err = newEngineWorkload(spec, o.seed, o.scale, dir)
	} else {
		w, err = newServiceWorkload(o.seed, o.scale, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", o.workload, err)
	}
	defer func() {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()

	rep = &report{Workload: o.workload, Seed: o.seed, Trace: o.trace, Env: currentEnvironment()}
	var warm samples
	for i := 0; i < warmupSlices; i++ {
		if err := runSlice(w, nil, i, &warm); err != nil {
			return nil, err
		}
	}
	rep.Inputs = w.describe()
	rep.Attempted, rep.Failed = warm.attempted, warm.failed
	if err := verifyGolden(w, o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		rep.Failed++
	}
	rep.WarmupS = time.Since(start).Seconds()

	budget := sliceBudget{count: o.slices, deadline: time.Now().Add(time.Duration(o.seconds * float64(time.Second)))}
	var plain, traced samples
	layer := map[string]float64{}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		tr.slice = -1 // probe spans belong to no slice
		req := w.probeRequest()
		if layer, err = runProbes(w.probeInputs(), req, tr); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", o.workload, err)
		}
	}
	for i := 0; budget.more(i); i++ {
		if err := runSlice(w, nil, warmupSlices+2*i, &plain); err != nil {
			return nil, err
		}
		if o.trace { // traced and untraced alternate, so host drift lands on both
			if err := runSlice(w, tr, warmupSlices+2*i+1, &traced); err != nil {
				return nil, err
			}
		}
	}
	rep.Attempted += plain.attempted + traced.attempted
	rep.Failed += plain.failed + traced.failed
	rep.Slices = len(plain.solveS)
	if rep.Slices == 0 {
		return nil, fmt.Errorf("%s: no slice verified (%d of %d operations failed)", o.workload, rep.Failed, rep.Attempted)
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.Host = hostSummary(&plain)
	rep.EndToEnd = map[string]summary{
		"solve_s":     summarize(plain.solveS),
		"setup_s":     summarize(plain.setupS),
		"peak_rss_mb": summarize([]float64{rss}),
	}
	if o.trace {
		fillSliceMetrics(layer, rep.Host, &plain, &traced)
		rep.PerLayer = layer
		rep.Layers = tr.layerTimes()
		rep.TraceFile = filepath.Join(o.outDir, "trace-"+o.workload+".json")
		if err := tr.write(rep.TraceFile); err != nil {
			return nil, err
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// verifyGolden compares the verified reference result with the committed
// digest. Only the default seed at full scale has one; any other run is
// held to the oracle, the pair counter and its own first slice.
func verifyGolden(w workload, o options) error {
	if o.seed != goldenSeed || o.scale != 1 {
		return nil
	}
	ref, err := w.reference()
	if err != nil {
		return err
	}
	return checkGolden(o.workload, digestOf(ref), o.updateGolden)
}

// hostSummary is what the run saw of the host, printed with every report
// (README.md, "Reading host.calib_cv").
func hostSummary(s *samples) map[string]float64 {
	return map[string]float64{
		"host.calib_ms":     median(s.calib) * 1e3,
		"host.calib_cv":     coefVar(s.calib),
		"host.slowdown":     median(s.calib) / calibNominalS,
		"host.solve_wall_s": median(s.solveWall),
		"host.setup_wall_s": median(s.setupWall),
	}
}

// fillSliceMetrics adds the per-layer metrics that come from the slices
// themselves rather than from a probe.
func fillSliceMetrics(m, host map[string]float64, plain, traced *samples) {
	for name, v := range host {
		m[name] = v
	}
	for name, v := range plain.shares {
		m["core.share_"+name] = median(v)
	}
	if len(plain.hitMs) > 0 { // service_mix: the slices' own hits, not the probe's twenty
		m["service.hit_ms"] = median(plain.hitMs)
	}
	m["trace.overhead_frac"] = 0
	if len(traced.solveS) > 0 {
		m["trace.overhead_frac"] = (median(traced.solveS) - median(plain.solveS)) / median(plain.solveS)
	}
}

// report is everything one run prints.
type report struct {
	Workload  string
	Seed      int64
	Trace     bool
	Env       environment
	Inputs    inputs
	Slices    int
	WarmupS   float64
	Host      map[string]float64
	EndToEnd  map[string]summary
	PerLayer  map[string]float64
	Layers    []layerTime
	TraceFile string
	Attempted int
	Failed    int
	Correct   bool
}

// resultLine is the last line of standard output, the form the driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(out *os.File) {
	fmt.Fprintf(out, "workload %s  seed %d  trace %v  slices %d\n", r.Workload, r.Seed, r.Trace, r.Slices)
	env, _ := json.Marshal(r.Env) // plain structs of strings and ints cannot fail to encode
	in, _ := json.Marshal(r.Inputs)
	fmt.Fprintf(out, "environment %s\ninputs %s\n", env, in)
	fmt.Fprintf(out, "%-34s %-8s %12s %12s %12s %6s\n", "metric", "unit", "median", "p25", "p75", "n")
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		s := r.EndToEnd[d.Name]
		fmt.Fprintf(out, "%-34s %-8s %12.6g %12.6g %12.6g %6d\n", d.Name, d.Unit, s.Median, s.P25, s.P75, s.N)
		if !r.Trace {
			line.Metrics[d.Name] = metricValue{Value: s.Median, Unit: d.Unit}
		}
	}
	if !r.Trace {
		fmt.Fprintf(out, "host: slowdown %.3f  calib_cv %.3f  solve_wall_s %.6g  setup_wall_s %.6g\n",
			r.Host["host.slowdown"], r.Host["host.calib_cv"], r.Host["host.solve_wall_s"], r.Host["host.setup_wall_s"])
	}
	if r.Trace {
		for _, d := range perLayer {
			fmt.Fprintf(out, "%-34s %-8s %12.6g\n", d.Name, d.Unit, r.PerLayer[d.Name])
			line.Metrics[d.Name] = metricValue{Value: r.PerLayer[d.Name], Unit: d.Unit}
		}
		fmt.Fprintf(out, "%-34s %6s %12s %12s   (span self time = span minus its children)\n", "layer", "calls", "total_s", "self_s")
		for _, lt := range r.Layers {
			fmt.Fprintf(out, "%-34s %6d %12.6f %12.6f\n", lt.Name, lt.Count, lt.Total, lt.Self)
		}
		fmt.Fprintf(out, "spans written to %s\n", r.TraceFile)
	}
	fmt.Fprintf(out, "warmup_s %.3f (input generation, oracle check, fixture, %d warm-up slices; not a gated metric)\n", r.WarmupS, warmupSlices)
	fmt.Fprintf(out, "ops_attempted %d  ops_failed %d\n", r.Attempted, r.Failed)
	data, _ := json.Marshal(line)
	fmt.Fprintf(out, "%s\n", data)
}
