// Command galactos-load is the galactosd load-test and smoke harness.
//
// With -smoke it runs the golden end-to-end gate CI asserts on: start a
// server (in-process unless -addr points at a live one), submit a job over
// HTTP with streamed progress, verify the streamed lifecycle and that the
// served result is bitwise-identical to a direct in-process galactos.Run,
// then resubmit the identical job and assert it answers from the result
// cache (CacheHits counter up, payload byte-for-byte the first answer).
//
// Without -smoke it load-tests: -clients concurrent clients each submit
// -requests jobs drawn from a small pool of distinct catalogs (so the run
// mixes cache misses and hits), and the harness reports p50/p90/p99
// latency, throughput, and the cache hit rate as perfstat-style JSON on
// stdout.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"galactos"
	"galactos/client"
	"galactos/internal/core"
	"galactos/internal/service"
)

// main is the one exit: run returns every failure. SIGINT/SIGTERM cancel
// run's context.
func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	cancel()
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "galactos-load: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set has already answered with
// its usage text; main exits 2 for it, as flag.ExitOnError would.
var errUsage = errors.New("usage")

// run parses args and runs the smoke gate or the load test against a
// server, writing its report to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("galactos-load", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "existing galactosd base URL (empty: serve in-process)")
		smoke    = fs.Bool("smoke", false, "run the golden smoke gate instead of the load test")
		clients  = fs.Int("clients", 16, "concurrent clients")
		requests = fs.Int("requests", 4, "requests per client")
		distinct = fs.Int("distinct", 4, "distinct catalogs in the request pool")
		n        = fs.Int("n", 1500, "galaxies per catalog")
		workers  = fs.Int("workers", runtime.NumCPU(), "in-process server worker-pool size")
		seed     = fs.Int64("seed", 1, "catalog generator seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	base := *addr
	if base == "" {
		svc, err := service.New(service.Options{Workers: *workers})
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		go http.Serve(ln, svc.Handler())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
			ln.Close()
		}()
		base = "http://" + ln.Addr().String()
	}
	cl := client.New(base, nil)
	if !cl.Healthy(ctx) {
		return fmt.Errorf("server at %s is not healthy", base)
	}

	if *smoke {
		return runSmoke(ctx, stdout, cl, *n, *seed)
	}
	return runLoad(ctx, stdout, cl, *clients, *requests, *distinct, *n, *seed)
}

// smokeConfig is the deterministic job both gates use. Workers is left at
// its default: the result bits do not depend on it, so the bitwise
// comparison against a direct run is exact on any host.
func smokeConfig() galactos.Config {
	cfg := galactos.DefaultConfig()
	cfg.RMax = 50
	cfg.NBins = 5
	cfg.LMax = 3
	return cfg
}

func runSmoke(ctx context.Context, stdout io.Writer, cl *client.Client, n int, seed int64) error {
	cat := galactos.GenerateClustered(n, 200, galactos.DefaultClusterParams(), seed)
	cfg := smokeConfig()
	req := galactos.Request{Catalog: cat, Config: cfg, Label: "service-smoke"}

	// The golden reference: the same request run directly through the
	// facade. The comparison is bitwise on the physics payload (every
	// anisotropic channel plus the counters) — the resultio envelope also
	// carries wall-clock timings, which legitimately differ run to run.
	direct, err := galactos.Run(ctx, req)
	if err != nil {
		return fmt.Errorf("direct run: %w", err)
	}

	before, err := cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}

	var states []client.State
	st, err := cl.SubmitStream(ctx, req, func(ev client.Event) {
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	})
	if err != nil {
		return fmt.Errorf("streamed submit: %w", err)
	}
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s (error %q), want done", st.ID, st.State, st.Error)
	}
	if st.CacheHit {
		return errors.New("cold submission reported a cache hit")
	}
	wantStates := []client.State{service.StateQueued, service.StateRunning, service.StateDone}
	if fmt.Sprint(states) != fmt.Sprint(wantStates) {
		return fmt.Errorf("streamed lifecycle %v, want %v", states, wantStates)
	}
	served, err := cl.ResultBytes(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	got, err := core.ReadResult(bytes.NewReader(served))
	if err != nil {
		return fmt.Errorf("decoding served result: %w", err)
	}
	if err := sameResult(got, direct.Result); err != nil {
		return fmt.Errorf("served result differs from direct run: %w", err)
	}
	fmt.Fprintf(stdout, "smoke: cold run ok: job %s done, %d pairs, result bitwise-equal to direct run (%d bytes)\n",
		st.ID, st.Perf.Pairs, len(served))

	// Resubmission must answer from the cache with the identical payload.
	st2, err := cl.Submit(ctx, req)
	if err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	st2, err = cl.Wait(ctx, st2.ID)
	if err != nil {
		return fmt.Errorf("waiting for resubmission: %w", err)
	}
	if st2.State != service.StateDone || !st2.CacheHit {
		return fmt.Errorf("resubmission: state %s, cache_hit %v; want done from cache", st2.State, st2.CacheHit)
	}
	if st2.Key != st.Key {
		return fmt.Errorf("resubmission keyed %s, first run %s", st2.Key, st.Key)
	}
	cached, err := cl.ResultBytes(ctx, st2.ID)
	if err != nil {
		return fmt.Errorf("cached result: %w", err)
	}
	if !bytes.Equal(cached, served) {
		return errors.New("cached result payload differs from the cold run's")
	}
	after, err := cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if got := after.CacheHits - before.CacheHits; got != 1 {
		return fmt.Errorf("cache hit counter rose by %d, want 1", got)
	}
	fmt.Fprintf(stdout, "smoke: resubmit ok: served from cache (hit counter %d), payload byte-identical\n", after.CacheHits)
	fmt.Fprintln(stdout, "service-smoke PASS")
	return nil
}

// loadReport is the harness's perfstat-style JSON summary.
type loadReport struct {
	Label     string `json:"label"`
	Host      string `json:"host"`
	Timestamp string `json:"timestamp"`

	Clients           int    `json:"clients"`
	RequestsPerClient int    `json:"requests_per_client"`
	Requests          int    `json:"requests"`
	DistinctCatalogs  int    `json:"distinct_catalogs"`
	NGalaxies         int    `json:"n_galaxies"`
	ConfigFingerprint string `json:"config_fingerprint"`

	ElapsedSec     float64 `json:"elapsed_sec"`
	RequestsPerSec float64 `json:"requests_per_sec"`

	LatencyMs struct {
		P50  float64 `json:"p50"`
		P90  float64 `json:"p90"`
		P99  float64 `json:"p99"`
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"latency_ms"`

	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Failed       int     `json:"failed"`
}

func runLoad(ctx context.Context, stdout io.Writer, cl *client.Client, clients, requests, distinct, n int, seed int64) error {
	cfg := smokeConfig()
	fp, err := cfg.Fingerprint()
	if err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	// A pool of distinct catalogs: each first submission misses the cache
	// and computes; repeats across the client fleet hit.
	pool := make([]*galactos.Catalog, distinct)
	for i := range pool {
		pool[i] = galactos.GenerateClustered(n, 200, galactos.DefaultClusterParams(), seed+int64(i))
	}

	before, err := cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}

	var mu sync.Mutex
	var latencies []float64 // ms
	failed := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				req := galactos.Request{
					Catalog: pool[(c*requests+i)%distinct],
					Config:  cfg,
					Label:   fmt.Sprintf("load-c%02d-r%02d", c, i),
				}
				t0 := time.Now()
				st, err := cl.Submit(ctx, req)
				if err == nil {
					st, err = cl.Wait(ctx, st.ID)
				}
				lat := time.Since(t0)
				mu.Lock()
				if err != nil || st.State != service.StateDone {
					failed++
				} else {
					latencies = append(latencies, float64(lat.Nanoseconds())/1e6)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses

	rep := loadReport{
		Label:             "service-load",
		Host:              host(),
		Timestamp:         time.Now().UTC().Format(time.RFC3339),
		Clients:           clients,
		RequestsPerClient: requests,
		Requests:          clients * requests,
		DistinctCatalogs:  distinct,
		NGalaxies:         n,
		ConfigFingerprint: fp,
		ElapsedSec:        elapsed.Seconds(),
		RequestsPerSec:    float64(len(latencies)) / elapsed.Seconds(),
		CacheHits:         hits,
		CacheMisses:       misses,
		Failed:            failed,
	}
	if hits+misses > 0 {
		rep.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	sort.Float64s(latencies)
	if len(latencies) > 0 {
		rep.LatencyMs.P50 = percentile(latencies, 0.50)
		rep.LatencyMs.P90 = percentile(latencies, 0.90)
		rep.LatencyMs.P99 = percentile(latencies, 0.99)
		rep.LatencyMs.Max = latencies[len(latencies)-1]
		sum := 0.0
		for _, v := range latencies {
			sum += v
		}
		rep.LatencyMs.Mean = sum / float64(len(latencies))
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	fmt.Fprintln(stdout, string(out))
	if failed > 0 {
		return fmt.Errorf("%d of %d requests failed", failed, rep.Requests)
	}
	return nil
}

// sameResult compares the physics payload of two results bitwise: the
// counters and every anisotropic channel, to the last mantissa bit.
func sameResult(a, b *core.Result) error {
	if a.Pairs != b.Pairs || a.NPrimaries != b.NPrimaries || a.NGalaxies != b.NGalaxies {
		return fmt.Errorf("counters differ: %d/%d pairs, %d/%d primaries, %d/%d galaxies",
			a.Pairs, b.Pairs, a.NPrimaries, b.NPrimaries, a.NGalaxies, b.NGalaxies)
	}
	if math.Float64bits(a.SumWeight) != math.Float64bits(b.SumWeight) {
		return fmt.Errorf("weight sums differ: %v vs %v", a.SumWeight, b.SumWeight)
	}
	if len(a.Aniso) != len(b.Aniso) {
		return fmt.Errorf("channel counts differ: %d vs %d", len(a.Aniso), len(b.Aniso))
	}
	for i := range a.Aniso {
		if math.Float64bits(real(a.Aniso[i])) != math.Float64bits(real(b.Aniso[i])) ||
			math.Float64bits(imag(a.Aniso[i])) != math.Float64bits(imag(b.Aniso[i])) {
			return fmt.Errorf("Aniso[%d] not bitwise identical: %v vs %v", i, a.Aniso[i], b.Aniso[i])
		}
	}
	return nil
}

// percentile reads the p-quantile from sorted values (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func host() string {
	h, err := os.Hostname()
	if err != nil {
		return runtime.GOOS + "/" + runtime.GOARCH
	}
	return h + " (" + runtime.GOOS + "/" + runtime.GOARCH + ")"
}
