package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json, the contract the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesProgram holds the names, units, directions, bounds
// and workloads BENCHMARK.json declares to the ones the program emits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadOrder))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadOrder[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, workloadOrder[i], workloadWhy[workloadOrder[i]])
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v, the program has %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || m.Unit == "" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad name, unit or bound", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v, the program has %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || m.Unit == "" || seen[m.Name] {
			t.Errorf("per-layer metric %+v: bad or repeated name, or no unit", m)
		}
		seen[m.Name] = true
	}
}

// TestWorkloadsEmitEveryMetric runs every workload small and requires a
// verified run that reports exactly the declared metrics. A traced run
// alternates traced and untraced slices, so it covers both; the engine
// workloads, which are cheap, also run untraced alone.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			checkRun(t, name, true)
			if _, engine := engineSpecs[name]; engine {
				checkRun(t, name, false)
			}
		})
	}
}

func checkRun(t *testing.T, name string, trace bool) {
	t.Helper()
	rep, err := run(options{workload: name, seed: 3, slices: 3, scale: 0.1, trace: trace, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("trace=%v: %v", trace, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 3 || rep.Slices != 3 {
		t.Errorf("trace=%v: correct=%v, %d of %d operations failed, %d slices", trace, rep.Correct, rep.Failed, rep.Attempted, rep.Slices)
	}
	for _, d := range endToEnd {
		if s, ok := rep.EndToEnd[d.Name]; !ok || s.N == 0 || !(s.Median > 0) {
			t.Errorf("trace=%v: end-to-end metric %s is %+v", trace, d.Name, s)
		}
	}
	if !trace {
		return
	}
	if len(rep.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics emitted, %d declared", len(rep.PerLayer), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := rep.PerLayer[d.Name]; !ok {
			t.Errorf("per-layer metric %s not emitted", d.Name)
		}
	}
	if _, err := os.Stat(rep.TraceFile); err != nil {
		t.Errorf("span file: %v", err)
	}
	if len(rep.Layers) == 0 {
		t.Error("no layer self times")
	}
}

// corrupting perturbs one channel of every result the wrapped workload
// solves after the first, which became the reference.
type corrupting struct {
	workload
	solved int
}

func (c *corrupting) solve(tr *tracer) (*outcome, error) {
	o, err := c.workload.solve(tr)
	if c.solved++; err == nil && c.solved > 1 {
		o.res.Aniso[0] += complex(1e-6*o.res.MaxAbs(), 0)
	}
	return o, err
}

// TestCorruptedResultIsAFailedOperation: a result that differs from the
// verified reference is counted in failed and kept out of the medians.
func TestCorruptedResultIsAFailedOperation(t *testing.T) {
	w, err := newEngineWorkload(engineSpecs["aniso_box"], 3, 0.1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var s samples
	c := &corrupting{workload: w}
	for i := 0; i < 3; i++ {
		if err := runSlice(c, nil, i, &s); err != nil {
			t.Fatal(err)
		}
	}
	if s.attempted != 3 || s.failed != 2 || len(s.solveS) != 1 {
		t.Errorf("3 slices, 2 corrupted: attempted %d, failed %d, %d in the medians", s.attempted, s.failed, len(s.solveS))
	}
}

// TestDigestToleratesRegroupingNotChange: the golden comparison passes a
// rounding-sized difference and fails an answer-sized one.
func TestDigestToleratesRegroupingNotChange(t *testing.T) {
	want := digest{Pairs: 10, L2: 5, Samples: [][2]float64{{1, 2}, {3, -4}}}
	regrouped := digest{Pairs: 10, L2: 5 * (1 + 1e-9), Samples: [][2]float64{{1 + 1e-9, 2}, {3, -4}}}
	if err := regrouped.matches(want, 1e-6); err != nil {
		t.Errorf("regrouped sums rejected: %v", err)
	}
	changed := digest{Pairs: 10, L2: 5, Samples: [][2]float64{{1.001, 2}, {3, -4}}}
	if changed.matches(want, 1e-6) == nil {
		t.Error("a changed sample was accepted")
	}
	if (digest{Pairs: 11, L2: 5, Samples: want.Samples}).matches(want, 1e-6) == nil {
		t.Error("a changed pair count was accepted")
	}
}

// TestSelfcheckShiftIsTwoSided: two sets of runs of the same code disagree
// when the second median is beyond the bound on either side of the first.
func TestSelfcheckShiftIsTwoSided(t *testing.T) {
	d := metricDef{Name: "solve_s", Bound: 0.10}
	a := []float64{1.00, 1.01, 0.99, 1.00}
	for _, c := range []struct {
		b    []float64
		want int
	}{
		{[]float64{1.05, 1.04, 1.06, 1.05}, 0},
		{[]float64{1.30, 1.31, 1.29, 1.30}, 1},
		{[]float64{0.70, 0.71, 0.69, 0.70}, 1},
	} {
		if bad := disagreements(d, a, c.b); len(bad) != c.want {
			t.Errorf("second set %v against %v: %v, want %d disagreements", c.b, a, bad, c.want)
		}
	}
}
