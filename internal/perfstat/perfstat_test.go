package perfstat

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/core"
)

func sampleReport(t *testing.T) *Report {
	t.Helper()
	cat := catalog.Clustered(300, 160, catalog.DefaultClusterParams(), 3)
	cfg := core.DefaultConfig()
	cfg.RMax = 40
	cfg.NBins = 4
	cfg.LMax = 4
	start := time.Now()
	res, err := core.Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Collect("test", cfg, res, time.Since(start))
}

func TestCollectPopulatesRates(t *testing.T) {
	r := sampleReport(t)
	if r.Pairs == 0 || r.PairsPerSec <= 0 {
		t.Fatalf("no pair rate: %+v", r)
	}
	if r.FlopsPerPair <= 0 || r.ModelGFlopsPerSec <= 0 {
		t.Errorf("no flop accounting: %+v", r)
	}
	if r.NGalaxies != 300 || r.NBins != 4 || r.LMax != 4 {
		t.Errorf("scenario fields wrong: %+v", r)
	}
	for _, phase := range []string{"tree_build", "gather", "consume", "alm_zeta", "worker_total"} {
		if _, ok := r.PhaseSec[phase]; !ok {
			t.Errorf("missing phase %q", phase)
		}
	}
}

// TestJSONRoundTrip pins the wire shape `galactos -perf-json` writes and
// galactosd serves as a job's `perf`: the key set, and values that decode
// back unchanged.
func TestJSONRoundTrip(t *testing.T) {
	r := sampleReport(t)
	r.Backend = "local"
	path := filepath.Join(t.TempDir(), "perf.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Pairs != r.Pairs || got.PairsPerSec != r.PairsPerSec || got.Label != r.Label {
		t.Errorf("round trip changed report: %+v vs %+v", got, *r)
	}
	if got.PhaseSec["consume"] != r.PhaseSec["consume"] {
		t.Errorf("phase breakdown lost in round trip")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"label", "backend", "host", "gomaxprocs", "num_cpu", "timestamp",
		"n_galaxies", "n_primaries", "n_bins", "l_max", "pairs", "workers",
		"config_fingerprint", "elapsed_sec", "pairs_per_sec", "flops_per_pair",
		"model_gflops_per_sec", "phase_sec", "parallel_efficiency", "worker_phase_sec"}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("key %q missing from the report", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("unexpected key %q in the report", k)
	}
}

func TestCollectPopulatesWorkers(t *testing.T) {
	r := sampleReport(t)
	if r.Workers < 1 {
		t.Errorf("Workers = %d, want the normalized budget", r.Workers)
	}
}

func TestCollectPopulatesConfigFingerprint(t *testing.T) {
	r := sampleReport(t)
	if len(r.ConfigFingerprint) != 64 {
		t.Errorf("ConfigFingerprint = %q, want a sha256 hex digest", r.ConfigFingerprint)
	}
}

func TestCollectRecordsHostParallelism(t *testing.T) {
	r := sampleReport(t)
	if r.GoMaxProcs != runtime.GOMAXPROCS(0) || r.NumCPU != runtime.NumCPU() {
		t.Fatalf("host parallelism not recorded: gomaxprocs=%d numcpu=%d", r.GoMaxProcs, r.NumCPU)
	}
}
