package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"galactos"
	"galactos/client"
	"galactos/internal/core"
	"galactos/internal/service"
)

// startServer boots a service on a real loopback listener — the tests
// exercise the full HTTP path through the client package, exactly as a
// remote galactosd deployment is driven.
func startServer(t *testing.T, opts service.Options) (*service.Server, *client.Client) {
	t.Helper()
	svc, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{}
	go http.Serve(ln, svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		hc.CloseIdleConnections()
		ln.Close()
	})
	return svc, client.New("http://"+ln.Addr().String(), hc)
}

// testRequest is a small deterministic job; distinct seeds give distinct
// catalogs, so repeated submissions with the same seed are cache hits and
// different seeds are misses.
func testRequest(n int, seed int64) galactos.Request {
	cfg := galactos.DefaultConfig()
	cfg.RMax = 40
	cfg.NBins = 4
	cfg.LMax = 2
	cfg.Workers = 1
	return galactos.Request{
		Catalog: galactos.GenerateClustered(n, 200, galactos.DefaultClusterParams(), seed),
		Config:  cfg,
		Label:   fmt.Sprintf("test-seed-%d", seed),
	}
}

func TestJobLifecycle(t *testing.T) {
	_, cl := startServer(t, service.Options{Workers: 1})
	ctx := context.Background()

	var events []client.Event
	st, err := cl.SubmitStream(ctx, testRequest(400, 1), func(ev client.Event) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job ended %s (error %q), want done", st.State, st.Error)
	}
	if st.CacheHit {
		t.Error("cold run reported a cache hit")
	}
	if st.Key == "" {
		t.Error("job has no cache key")
	}
	if st.StartedAt.IsZero() || st.FinishedAt.IsZero() {
		t.Error("terminal job missing start/finish timestamps")
	}
	if len(st.Units) == 0 {
		t.Error("fresh done job missing unit stats")
	}

	// The event stream must be the full, ordered lifecycle.
	var states []service.State
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d; streams must replay densely from 0", i, ev.Seq)
		}
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	want := []service.State{service.StateQueued, service.StateRunning, service.StateDone}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Errorf("lifecycle %v, want %v", states, want)
	}

	// A late watcher replays the identical history.
	var replayed []client.Event
	if _, err := cl.Watch(ctx, st.ID, func(ev client.Event) { replayed = append(replayed, ev) }); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(events) {
		t.Errorf("late watcher saw %d events, original stream %d", len(replayed), len(events))
	}

	res, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs == 0 || res.NPrimaries != 400 {
		t.Errorf("decoded result has %d pairs over %d primaries", res.Pairs, res.NPrimaries)
	}
	// A done job's phase timings travel in its result bytes' header.
	if res.Timings.Consume <= 0 {
		t.Errorf("fetched result carries no phase timings: %+v", res.Timings)
	}
}

// TestCacheHitBitwiseIdenticalToColdRun: the cold run serves the bits of a
// direct Run of the same inline request, and its resubmission is a cache hit
// under the same key serving the same bytes, counted as 1 hit / 1 miss.
func TestCacheHitBitwiseIdenticalToColdRun(t *testing.T) {
	_, cl := startServer(t, service.Options{Workers: 1})
	ctx := context.Background()
	req := testRequest(400, 2)

	cold, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold, err = cl.Wait(ctx, cold.ID); err != nil {
		t.Fatal(err)
	}
	if cold.State != service.StateDone || cold.CacheHit {
		t.Fatalf("cold run: state %s, cache_hit %v", cold.State, cold.CacheHit)
	}
	coldBytes, err := cl.ResultBytes(ctx, cold.ID)
	if err != nil {
		t.Fatal(err)
	}

	warm, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm, err = cl.Wait(ctx, warm.ID); err != nil {
		t.Fatal(err)
	}
	if warm.State != service.StateDone || !warm.CacheHit {
		t.Fatalf("resubmission: state %s, cache_hit %v; want done from cache", warm.State, warm.CacheHit)
	}
	if warm.Key != cold.Key {
		t.Errorf("same request keyed differently: %s vs %s", warm.Key, cold.Key)
	}
	warmBytes, err := cl.ResultBytes(ctx, warm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Error("cache hit served different bytes than the cold run")
	}
	// The payload is a valid resultio stream carrying the answer of a
	// direct Run of the same request, counters and channels bit for bit.
	a, err := core.ReadResult(bytes.NewReader(coldBytes))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := galactos.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePayload(a, direct.Result); err != nil {
		t.Errorf("served result differs from a direct Run: %v", err)
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 || stats.CacheMisses != 1 || stats.CacheEntries != 1 {
		t.Errorf("stats: %d hits / %d misses / %d entries, want 1/1/1",
			stats.CacheHits, stats.CacheMisses, stats.CacheEntries)
	}
}

// samePayload compares the physics payload of two results bitwise: the
// counters, the weight sum and every anisotropic channel. The timings,
// which differ run to run, are not compared.
func samePayload(a, b *core.Result) error {
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
			return fmt.Errorf("Aniso[%d] differs: %v vs %v", i, a.Aniso[i], b.Aniso[i])
		}
	}
	return nil
}

// TestCacheKeyIgnoresWorkers submits one request at Workers 1, then 3, then
// 0 (GOMAXPROCS): the worker count moves no result bit, so it is
// not in the cache key, and the later submissions are hits serving the
// first run's bytes.
func TestCacheKeyIgnoresWorkers(t *testing.T) {
	_, cl := startServer(t, service.Options{Workers: 1})
	ctx := context.Background()
	req := testRequest(400, 9)
	var first []byte
	// The fourth resubmission also sets the deprecated finder knobs, the
	// fifth the execution knobs an older build hashed: the engine ignores
	// both and the key hashes neither.
	for i, workers := range []int{1, 3, 0, 2, 1} {
		req.Config.Workers = workers
		switch i {
		case 3:
			req.Config.Finder, req.Config.LeafSize = 2, 7
		case 4:
			wire, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			req = galactos.Request{}
			if err := json.Unmarshal(withExecutionKnobs(t, wire), &req); err != nil {
				t.Fatal(err)
			}
		}
		st, err := cl.SubmitStream(ctx, req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.StateDone || st.CacheHit != (i > 0) {
			t.Fatalf("submission %d (Workers=%d): state %s, cache_hit %v; want done, cache_hit %v", i, workers, st.State, st.CacheHit, i > 0)
		}
		got, err := cl.ResultBytes(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Errorf("submission %d (Workers=%d): the hit served different bytes than the Workers=1 run", i, workers)
		}
	}
}

// withExecutionKnobs returns the JSON request wire with the execution knobs
// an older build read and hashed set in its config: BucketSize still decodes
// (deprecated and ignored), ChunkSize and BlockCell no longer do.
func withExecutionKnobs(t *testing.T, wire []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(wire, &m); err != nil {
		t.Fatal(err)
	}
	cfg := m["config"].(map[string]any)
	cfg["BucketSize"], cfg["ChunkSize"], cfg["BlockCell"] = 64, 17, 33
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// submitRejects are requests the submit path must refuse with a 400, each a
// mutation of a valid one.
var submitRejects = []struct {
	name string
	mut  func(*galactos.Request)
}{
	{"no catalog", func(r *galactos.Request) { r.Catalog = nil }},
	{"two catalog inputs", func(r *galactos.Request) { r.Path = "also.glxc" }},
	{"invalid config", func(r *galactos.Request) { r.Config.RMax = -1 }},
	{"contradictory backend", func(r *galactos.Request) {
		r.Backend = galactos.BackendSpec{Name: "local", Shards: 4}
	}},
	{"removed dist backend", func(r *galactos.Request) {
		r.Backend = galactos.BackendSpec{Name: "dist"}
	}},
	{"unreadable catalog file", func(r *galactos.Request) {
		r.Catalog = nil
		r.Path = "no/such/catalog.glxc"
	}},
	{"timeout beyond time.Duration", func(r *galactos.Request) { r.TimeoutSec = 1e10 }},
}

func TestSubmitValidation(t *testing.T) {
	_, cl := startServer(t, service.Options{Workers: 1})
	ctx := context.Background()
	good := testRequest(50, 3)

	for _, tc := range submitRejects {
		req := good
		tc.mut(&req)
		_, err := cl.Submit(ctx, req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %v, want HTTP 400", tc.name, err)
		}
	}
	// The server must still be fully operational after rejections.
	st, err := cl.Submit(ctx, good)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil || st.State != service.StateDone {
		t.Fatalf("valid job after rejections: %v, state %s", err, st.State)
	}
}

// TestJobStatusDecodesRetiredPerfKey: a done job's status as earlier
// servers sent it, with a full "perf" report, still decodes; the retired
// key is ignored and every other field arrives intact.
func TestJobStatusDecodesRetiredPerfKey(t *testing.T) {
	wire := `{"id":"job-000007","state":"done","label":"survey","key":"cat+fp",` +
		`"queued_at":"2026-10-01T12:00:00Z","started_at":"2026-10-01T12:00:01Z","finished_at":"2026-10-01T12:00:03Z",` +
		`"elapsed_sec":1.5,` +
		`"units":[{"Unit":0,"NOwned":400,"NHalo":0,"Pairs":9000,"Elapsed":1400000000,"Resumed":false}],` +
		`"perf":{"label":"local","backend":"local","host":"linux/amd64 2-cpu","gomaxprocs":2,"num_cpu":2,` +
		`"timestamp":"2026-10-01T12:00:03Z","n_galaxies":400,"n_primaries":400,"n_bins":4,"l_max":2,` +
		`"pairs":9000,"workers":1,"config_fingerprint":"fp","elapsed_sec":1.5,"pairs_per_sec":6000,` +
		`"flops_per_pair":120,"model_gflops_per_sec":0.0007,` +
		`"phase_sec":{"tree_build":0.01,"gather":0.2,"consume":1.1,"self_count":0,"alm_zeta":0.1,"worker_total":1.4},` +
		`"parallel_efficiency":0.93,` +
		`"worker_phase_sec":[{"gather":0.2,"consume":1.1,"self_count":0,"alm_zeta":0.1,"worker_total":1.4}]}}`
	var got client.JobStatus
	if err := json.Unmarshal([]byte(wire), &got); err != nil {
		t.Fatal(err)
	}
	queued := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	want := client.JobStatus{
		ID: "job-000007", State: service.StateDone, Label: "survey", Key: "cat+fp",
		QueuedAt: queued, StartedAt: queued.Add(time.Second), FinishedAt: queued.Add(3 * time.Second), ElapsedSec: 1.5,
		Units: []galactos.UnitStats{{NOwned: 400, Pairs: 9000, Elapsed: 1400 * time.Millisecond}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestJobStatusUnitsWireKeys pins the JSON keys of a status's per-unit
// statistics, which clients read: the field names of the unit stats type.
func TestJobStatusUnitsWireKeys(t *testing.T) {
	st := service.JobStatus{Units: []galactos.UnitStats{{Unit: 2, NOwned: 10, NHalo: 3, Pairs: 40, Elapsed: time.Second, Resumed: true}}}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Units []map[string]any `json:"units"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Units) != 1 {
		t.Fatalf("units = %s", data)
	}
	want := map[string]any{"Unit": 2.0, "NOwned": 10.0, "NHalo": 3.0, "Pairs": 40.0, "Elapsed": 1e9, "Resumed": true}
	if !reflect.DeepEqual(wire.Units[0], want) {
		t.Fatalf("unit keys = %v, want %v", wire.Units[0], want)
	}
}

// waitForState polls until the job reaches a terminal state or the
// deadline passes, returning the final status.
func waitForState(t *testing.T, cl *client.Client, id string, want service.State, deadline time.Duration) client.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	for {
		st, err := cl.Status(ctx, id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s terminalized as %s, want %s", id, st.State, want)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestStreamingSubmitDisconnectCancelsPromptly(t *testing.T) {
	svc, cl := startServer(t, service.Options{Workers: 1})
	before := runtime.NumGoroutine()

	// A job big enough that it cannot finish before we disconnect.
	req := testRequest(30000, 4)
	req.Config.LMax = 8

	ctx, cancel := context.WithCancel(context.Background())
	running := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cl.SubmitStream(ctx, req, func(ev client.Event) {
			if ev.Type == "state" && ev.State == service.StateRunning {
				close(running)
			}
		})
	}()
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started running")
	}
	// Disconnect the owning stream: the job must cancel promptly.
	cancel()
	<-done

	jobs := svc.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("expected 1 job, found %d", len(jobs))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := svc.Jobs()[0]
		if st.State == service.StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s 5s after owner disconnect, want cancelled", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// No goroutine leaks: the engine workers, the SSE handler, and the
	// event waiters must all wind down once the job is cancelled.
	var leaked int
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
		leaked = runtime.NumGoroutine() - before
		if leaked <= 2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("%d goroutines leaked after disconnect-cancel", leaked)
}

func TestWatcherDisconnectDoesNotCancel(t *testing.T) {
	_, cl := startServer(t, service.Options{Workers: 1})
	ctx := context.Background()

	req := testRequest(4000, 5)
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Attach a watcher and disconnect it mid-run: watching must not own
	// the job's lifetime.
	wctx, wcancel := context.WithCancel(ctx)
	go cl.Watch(wctx, st.ID, func(ev client.Event) {
		if ev.Type == "state" && ev.State == service.StateRunning {
			wcancel()
		}
	})
	final := waitForState(t, cl, st.ID, service.StateDone, 60*time.Second)
	if final.Error != "" {
		t.Errorf("job failed: %s", final.Error)
	}
	wcancel()
}

func TestExplicitCancel(t *testing.T) {
	_, cl := startServer(t, service.Options{Workers: 1})
	ctx := context.Background()

	req := testRequest(30000, 6)
	req.Config.LMax = 8
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, st.ID, service.StateRunning, 30*time.Second)
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateCancelled {
		t.Fatalf("cancelled job ended %s", final.State)
	}
	// A cancelled job has no result to serve.
	if _, err := cl.ResultBytes(ctx, st.ID); err == nil {
		t.Error("cancelled job served a result")
	}
}

func TestCancelWhileQueued(t *testing.T) {
	_, cl := startServer(t, service.Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	// Occupy the single worker, then queue a victim behind it.
	blocker := testRequest(30000, 7)
	blocker.Config.LMax = 8
	bst, err := cl.Submit(ctx, blocker)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := cl.Submit(ctx, testRequest(400, 8))
	if err != nil {
		t.Fatal(err)
	}
	if victim, err = cl.Cancel(ctx, victim.ID); err != nil {
		t.Fatal(err)
	}
	if victim.State != service.StateCancelled {
		t.Fatalf("queued job not cancelled immediately: %s", victim.State)
	}
	if _, err := cl.Cancel(ctx, bst.ID); err != nil {
		t.Fatal(err)
	}
	cl.Wait(ctx, bst.ID)
}

func TestQueueFullRejects(t *testing.T) {
	svc, cl := startServer(t, service.Options{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	// Fill the worker and the 1-slot queue with slow distinct jobs, then
	// overflow. Submission order is serialized here, so by the third
	// submit the first occupies the worker and the second the queue slot.
	slow := func(seed int64) galactos.Request {
		r := testRequest(30000, seed)
		r.Config.LMax = 8
		return r
	}
	first, err := cl.Submit(ctx, slow(10))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, first.ID, service.StateRunning, 30*time.Second)
	second, err := cl.Submit(ctx, slow(11))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Submit(ctx, slow(12))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: got %v, want HTTP 429", err)
	}
	// The rejected job must leave no trace: it is never registered, so it
	// can't sit in the listing as a phantom "queued" entry or inflate the
	// queued/submitted counters.
	if jobs := svc.Jobs(); len(jobs) != 2 {
		t.Errorf("after a queue-full rejection the server lists %d jobs, want 2", len(jobs))
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queued != 1 || stats.Submitted != 2 {
		t.Errorf("stats after rejection: queued %d, submitted %d; want 1, 2", stats.Queued, stats.Submitted)
	}
	for _, id := range []string{first.ID, second.ID} {
		cl.Cancel(ctx, id)
		cl.Wait(ctx, id)
	}
}

// TestSubmitDuringShutdownNoPanic hammers Submit concurrently with
// Shutdown. Submissions racing the drain must resolve to accepted,
// ErrDraining, or ErrQueueFull — never a send on the closed queue (which
// would panic and fail the test hard) — and accepted jobs must drain.
func TestSubmitDuringShutdownNoPanic(t *testing.T) {
	svc, err := service.New(service.Options{Workers: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 25; i++ {
				_, err := svc.Submit(testRequest(100, int64(60+g*25+i)))
				if err != nil && !errors.Is(err, service.ErrDraining) && !errors.Is(err, service.ErrQueueFull) {
					t.Errorf("racing submit: %v", err)
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let submissions overlap the drain
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for _, st := range svc.Jobs() {
		if !st.State.Terminal() {
			t.Errorf("job %s still %s after shutdown", st.ID, st.State)
		}
	}
}

// TestTerminalJobEviction pins the retention bound: a server with
// RetainJobs=2 keeps only the two newest terminal jobs registered, and an
// evicted id answers 404.
func TestTerminalJobEviction(t *testing.T) {
	svc, cl := startServer(t, service.Options{Workers: 1, RetainJobs: 2})
	ctx := context.Background()

	var ids []string
	for seed := int64(70); seed < 75; seed++ {
		st, err := cl.Submit(ctx, testRequest(200, seed))
		if err != nil {
			t.Fatal(err)
		}
		if st, err = cl.Wait(ctx, st.ID); err != nil || st.State != service.StateDone {
			t.Fatalf("job %s: %v, state %s", st.ID, err, st.State)
		}
		ids = append(ids, st.ID)
	}

	// Eviction runs in the worker just after the terminal event; give it a
	// moment to settle.
	deadline := time.Now().Add(5 * time.Second)
	for len(svc.Jobs()) != 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	jobs := svc.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("server retains %d jobs, want 2", len(jobs))
	}
	if jobs[0].ID != ids[3] || jobs[1].ID != ids[4] {
		t.Errorf("retained %s, %s; want the newest two %s, %s", jobs[0].ID, jobs[1].ID, ids[3], ids[4])
	}
	_, err := cl.Status(ctx, ids[0])
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job status: got %v, want HTTP 404", err)
	}
}

// TestStalePathCatalogFailsInsteadOfPoisoningCache rewrites a Path catalog
// while its job sits queued. The run must fail on the content-hash
// re-check — running it would cache the new content's result under the old
// content's key — and the old content must then still compute fresh.
func TestStalePathCatalogFailsInsteadOfPoisoningCache(t *testing.T) {
	_, cl := startServer(t, service.Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	orig := testRequest(400, 80)
	changed := testRequest(400, 81)
	path := filepath.Join(t.TempDir(), "cat.glxc")
	if err := galactos.SaveCatalog(path, orig.Catalog); err != nil {
		t.Fatal(err)
	}

	// Occupy the single worker so the path job sits queued while the file
	// changes underneath it.
	blocker := testRequest(30000, 82)
	blocker.Config.LMax = 8
	bst, err := cl.Submit(ctx, blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, bst.ID, service.StateRunning, 30*time.Second)

	pathReq := orig
	pathReq.Catalog = nil
	pathReq.Path = path
	pst, err := cl.Submit(ctx, pathReq)
	if err != nil {
		t.Fatal(err)
	}
	if err := galactos.SaveCatalog(path, changed.Catalog); err != nil {
		t.Fatal(err)
	}
	cl.Cancel(ctx, bst.ID)
	cl.Wait(ctx, bst.ID)

	if pst, err = cl.Wait(ctx, pst.ID); err != nil {
		t.Fatal(err)
	}
	if pst.State != service.StateFailed || !strings.Contains(pst.Error, "hash mismatch") {
		t.Fatalf("stale-catalog job ended %s (%q), want failed on hash mismatch", pst.State, pst.Error)
	}

	// Nothing was cached under the original content's key: the original
	// catalog submitted inline must run fresh, not hit.
	st, err := cl.Submit(ctx, orig)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil || st.State != service.StateDone {
		t.Fatalf("original catalog after stale failure: %v, state %s", err, st.State)
	}
	if st.CacheHit {
		t.Error("original catalog hit the cache after the stale path job failed; the stale run must not have populated it")
	}
}

func TestGracefulShutdownDrainsInFlightJobs(t *testing.T) {
	svc, cl := startServer(t, service.Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()

	// One running job and two queued behind it; Shutdown must finish all
	// three, not abandon the queue.
	var ids []string
	for seed := int64(20); seed < 23; seed++ {
		st, err := cl.Submit(ctx, testRequest(2000, seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	sctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	for _, st := range svc.Jobs() {
		if st.State != service.StateDone {
			t.Errorf("job %s ended %s after graceful shutdown, want done", st.ID, st.State)
		}
	}
	// A draining server refuses new work.
	_, err := cl.Submit(ctx, testRequest(100, 30))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: got %v, want HTTP 503", err)
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	svc, cl := startServer(t, service.Options{Workers: 1})
	ctx := context.Background()

	req := testRequest(30000, 40)
	req.Config.LMax = 8
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, st.ID, service.StateRunning, 30*time.Second)

	sctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown past deadline returned %v, want deadline exceeded", err)
	}
	final := svc.Jobs()[0]
	if final.State != service.StateCancelled {
		t.Errorf("in-flight job ended %s after deadline shutdown, want cancelled", final.State)
	}
}
