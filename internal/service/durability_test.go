package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"galactos"
	"galactos/client"
	"galactos/internal/catalog"
	"galactos/internal/journal"
	"galactos/internal/service"
)

// startRestartable boots a durable server like startServer, but returns an
// idempotent stop func so restart tests can shut the first incarnation
// down mid-test and boot a second on the same state dir.
func startRestartable(t *testing.T, opts service.Options) (*service.Server, *client.Client, func()) {
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
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
			hc.CloseIdleConnections()
			ln.Close()
		})
	}
	t.Cleanup(stop)
	return svc, client.New("http://"+ln.Addr().String(), hc), stop
}

// TestRestartRestoresTerminalJobsAndCache is the durability round trip: a
// completed job survives a full server restart — status queryable under
// its original id, result bytes identical, and the disk cache serving a
// hit for a resubmission of the same request.
func TestRestartRestoresTerminalJobsAndCache(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := testRequest(300, 42)

	_, cl1, stop1 := startRestartable(t, service.Options{Workers: 1, StateDir: dir})
	st, err := cl1.SubmitStream(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	coldBytes, err := cl1.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	stop1()

	svc2, cl2, stop2 := startRestartable(t, service.Options{Workers: 1, StateDir: dir})
	stats := svc2.Stats()
	if !stats.Durable {
		t.Error("state-dir server does not report Durable")
	}
	if stats.RestoredJobs != 1 {
		t.Errorf("RestoredJobs = %d, want 1", stats.RestoredJobs)
	}
	restored, err := cl2.Status(ctx, st.ID)
	if err != nil {
		t.Fatalf("restored job not queryable: %v", err)
	}
	if restored.State != service.StateDone || restored.Key != st.Key {
		t.Errorf("restored job = %s/%s, want done with key %s", restored.State, restored.Key, st.Key)
	}
	warmBytes, err := cl2.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatalf("restored job's result: %v", err)
	}
	if string(warmBytes) != string(coldBytes) {
		t.Error("restored result bytes differ from the pre-restart bytes")
	}

	// The disk cache must answer a resubmission as a hit, without a run.
	hit, err := cl2.SubmitStream(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != service.StateDone || !hit.CacheHit {
		t.Fatalf("resubmission after restart = %s (cacheHit=%v), want a done cache hit", hit.State, hit.CacheHit)
	}
	if got := svc2.Stats(); got.CacheHits != 1 {
		t.Errorf("CacheHits after restart+resubmit = %d, want 1", got.CacheHits)
	}
	hitBytes, err := cl2.ResultBytes(ctx, hit.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(hitBytes) != string(coldBytes) {
		t.Error("cache-hit bytes differ from the cold run's bytes")
	}

	// One store holds the result, as a file, and both jobs read it there.
	// Destroy the cache files: both jobs answer Gone.
	ents, err := os.ReadDir(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		os.Remove(filepath.Join(dir, "cache", e.Name()))
	}
	for _, id := range []string{st.ID, hit.ID} {
		_, err := cl2.ResultBytes(ctx, id)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusGone {
			t.Errorf("%s: result with its file deleted = %v, want HTTP 410", id, err)
		}
	}
	stop2()

	// After another restart both jobs are restored — the hit from its
	// single journal record — and both results are still Gone.
	svc3, cl3, _ := startRestartable(t, service.Options{Workers: 1, StateDir: dir})
	if got := svc3.Stats().RestoredJobs; got != 2 {
		t.Errorf("RestoredJobs = %d, want 2", got)
	}
	if back, err := cl3.Status(ctx, hit.ID); err != nil || back.State != service.StateDone || !back.CacheHit || back.Key != st.Key {
		t.Errorf("restored hit job = %+v (err %v), want a done cache hit with key %s", back, err, st.Key)
	}
	for _, id := range []string{st.ID, hit.ID} {
		_, err := cl3.ResultBytes(ctx, id)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusGone {
			t.Errorf("%s: result with no bytes anywhere = %v, want HTTP 410", id, err)
		}
	}
}

// TestJournalReplayRequeuesInterruptedJob hand-writes the journal a killed
// process leaves — a submit record and a start record, no end — and
// requires the next boot to re-enqueue the job under its original id, run
// it, and keep the id counter past every journaled id. A sibling record
// naming the retired dist backend must come back failed, not crash the boot;
// one carrying the deprecated Stream / ShardConcurrency fields must run as
// the request without them does, with one line saying they were ignored; and
// ones whose config still carries the deleted Scheduling field, or the
// execution knobs BucketSize, ChunkSize and BlockCell, must run to the bits
// of the same request without them.
func TestJournalReplayRequeuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := testRequest(300, 7)
	src, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	catHash, err := catalog.Hash(src)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := req.Config.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	jnl, _, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	// A second interrupted job was journaled by an older build against the
	// retired "dist" backend: same request, backend spec rewritten on the
	// wire.
	var wire map[string]any
	if err := json.Unmarshal(reqJSON, &wire); err != nil {
		t.Fatal(err)
	}
	wire["backend"] = map[string]any{"Name": "dist", "Ranks": 2}
	distJSON, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}

	// A third was journaled by the build before this one, which still read
	// Stream and ShardConcurrency. It gets its own cache key so it runs.
	wire["backend"] = map[string]any{"Name": "sharded", "Shards": 2, "ShardConcurrency": 2, "Stream": true}
	oldJSON, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}

	// A fourth predates the single commit order: its config names the
	// static schedule, a field this build no longer has.
	var sched map[string]any
	if err := json.Unmarshal(reqJSON, &sched); err != nil {
		t.Fatal(err)
	}
	sched["config"].(map[string]any)["Scheduling"] = 1
	schedJSON, err := json.Marshal(sched)
	if err != nil {
		t.Fatal(err)
	}
	// A fifth was journaled when the config carried its execution knobs.
	knobsJSON := withExecutionKnobs(t, reqJSON)

	const id, distID, oldID, schedID, knobsID = "job-000003", "job-000002", "job-000001", "job-000004", "job-000005"
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, sub := range []struct {
		id, key string
		request []byte
	}{
		{oldID, "old+" + fp, oldJSON}, {distID, catHash + "+" + fp, distJSON},
		{id, catHash + "+" + fp, reqJSON}, {schedID, "sched+" + fp, schedJSON},
		{knobsID, "knobs+" + fp, knobsJSON},
	} {
		must(jnl.Append(journal.Record{
			Type: journal.RecordSubmit, ID: sub.id, Time: time.Now().UTC(),
			Key: sub.key, CatHash: catHash, Fingerprint: fp,
			Label: req.Label, Request: sub.request,
		}))
		must(jnl.Append(journal.Record{Type: journal.RecordStart, ID: sub.id, Time: time.Now().UTC()}))
	}
	must(jnl.Close())

	svc, cl, _ := startRestartable(t, service.Options{Workers: 1, StateDir: dir})
	if got := svc.Stats().RequeuedJobs; got != 4 {
		t.Fatalf("RequeuedJobs = %d, want 4", got)
	}

	// The deprecated fields select nothing: the job runs to the bits of the
	// same request without them, and says once that it ignored them.
	var oldLog []string
	ost, err := cl.Watch(ctx, oldID, func(ev client.Event) { oldLog = append(oldLog, ev.Message) })
	if err != nil {
		t.Fatal(err)
	}
	if ost.State != service.StateDone {
		t.Fatalf("job with deprecated backend fields ended %s (%s), want done", ost.State, ost.Error)
	}
	if n := strings.Count(strings.Join(oldLog, "\n"), "deprecated and ignored"); n != 1 {
		t.Errorf("%d deprecation lines in the job's event log, want 1:\n%s", n, strings.Join(oldLog, "\n"))
	}
	got, err := cl.Result(ctx, oldID)
	if err != nil {
		t.Fatal(err)
	}
	plain := req
	plain.Backend = galactos.BackendSpec{Name: "sharded", Shards: 2}
	want, err := galactos.Run(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pairs != want.Result.Pairs || got.MaxAbsDiff(want.Result) != 0 {
		t.Errorf("deprecated fields changed the answer: pairs %d vs %d, max |diff| %v",
			got.Pairs, want.Result.Pairs, got.MaxAbsDiff(want.Result))
	}

	// The removed-backend job is restored failed — the error, naming the
	// backends that remain, is in its event log — and the pool serves on.
	var distLog []string
	dst, err := cl.Watch(ctx, distID, func(ev client.Event) { distLog = append(distLog, ev.Message) })
	if err != nil {
		t.Fatal(err)
	}
	if dst.State != service.StateFailed {
		t.Fatalf("dist job ended %s, want failed", dst.State)
	}
	if all := strings.Join(distLog, "\n"); !strings.Contains(all, `"dist"`) || !strings.Contains(all, "local or sharded") {
		t.Fatalf("dist job's event log does not carry the removed-backend error:\n%s", all)
	}
	st, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("requeued job ended %s (%s), want done", st.State, st.Error)
	}
	plainRes, err := cl.Result(ctx, id)
	if err != nil {
		t.Fatalf("requeued job's result: %v", err)
	}

	// The unknown Scheduling field, ChunkSize and BlockCell are ignored on
	// decode and the deprecated BucketSize by the engine: each job completes
	// with the bits of the request without them.
	for _, old := range []struct{ id, fields string }{
		{schedID, "Scheduling"}, {knobsID, "BucketSize/ChunkSize/BlockCell"},
	} {
		ost, err := cl.Wait(ctx, old.id)
		if err != nil {
			t.Fatal(err)
		}
		if ost.State != service.StateDone {
			t.Fatalf("job carrying %s ended %s (%s), want done", old.fields, ost.State, ost.Error)
		}
		res, err := cl.Result(ctx, old.id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pairs != plainRes.Pairs || res.MaxAbsDiff(plainRes) != 0 {
			t.Errorf("%s changed the answer: pairs %d vs %d, max |diff| %v",
				old.fields, res.Pairs, plainRes.Pairs, res.MaxAbsDiff(plainRes))
		}
	}

	// Ids never rewind: the next submission must come after job-000005.
	next, err := cl.Submit(ctx, testRequest(300, 8))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "job-000006" {
		t.Errorf("post-recovery id = %s, want job-000006", next.ID)
	}
}

// TestEvictedJobsDoNotResurrect runs eviction live (RetainJobs=1 over
// three jobs), restarts, and requires the journal's evict records and
// boot-time compaction to keep the evicted ids dead: 404 before the
// restart means 404 after it.
func TestEvictedJobsDoNotResurrect(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	opts := service.Options{Workers: 1, RetainJobs: 1, StateDir: dir}
	_, cl1, stop1 := startRestartable(t, opts)

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		st, err := cl1.SubmitStream(ctx, testRequest(250, seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.StateDone {
			t.Fatalf("seed %d ended %s (%s)", seed, st.State, st.Error)
		}
		ids = append(ids, st.ID)
	}
	stop1()

	svc2, cl2, _ := startRestartable(t, opts)
	if got := svc2.Stats().RestoredJobs; got != 1 {
		t.Errorf("RestoredJobs = %d, want 1 (RetainJobs=1)", got)
	}
	jobs, err := cl2.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != ids[2] {
		t.Fatalf("restart replayed %+v, want exactly the newest job %s", jobs, ids[2])
	}
	for _, id := range ids[:2] {
		_, err := cl2.Status(ctx, id)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s resurrected after restart (err=%v, want 404)", id, err)
		}
	}
}

// TestRetainJobsBoundsReplay feeds a journal holding more terminal jobs
// than RetainJobs allows (no evict records — the bound itself must act)
// and requires replay to keep only the newest RetainJobs of them.
func TestRetainJobsBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	mkID := func(n int) string { return "job-00000" + string(rune('0'+n)) }
	for i := 1; i <= 5; i++ {
		id := mkID(i)
		if err := jnl.Append(journal.Record{
			Type: journal.RecordSubmit, ID: id, Time: time.Now().UTC(),
			Key: "cat+fp", CatHash: "cat", Fingerprint: "fp",
		}); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(journal.Record{
			Type: journal.RecordEnd, ID: id, Time: time.Now().UTC(), State: "done",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	svc, cl, _ := startRestartable(t, service.Options{Workers: 1, RetainJobs: 2, StateDir: dir})
	if got := svc.Stats().RestoredJobs; got != 2 {
		t.Errorf("RestoredJobs = %d, want 2", got)
	}
	jobs, err := cl.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != mkID(4) || jobs[1].ID != mkID(5) {
		t.Fatalf("replayed %+v, want the newest two jobs", jobs)
	}
}

// TestPoisonedCacheEntryRecomputed corrupts a persisted cache entry across
// a restart: the poisoned entry must be detected at read, deleted, and
// treated as a miss — the job recomputes and repopulates, and is never
// served the torn bytes.
func TestPoisonedCacheEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := testRequest(250, 9)

	_, cl1, stop1 := startRestartable(t, service.Options{Workers: 1, StateDir: dir})
	st, err := cl1.SubmitStream(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("cold run ended %s (%s)", st.State, st.Error)
	}
	stop1()

	cacheDir := filepath.Join(dir, "cache")
	ents, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(ents))
	}
	path := filepath.Join(cacheDir, ents[0].Name())
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	svc2, cl2, _ := startRestartable(t, service.Options{Workers: 1, StateDir: dir})
	redo, err := cl2.SubmitStream(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if redo.State != service.StateDone {
		t.Fatalf("recompute ended %s (%s)", redo.State, redo.Error)
	}
	if redo.CacheHit {
		t.Fatal("poisoned cache entry was served as a hit")
	}
	if stats := svc2.Stats(); stats.CacheMisses != 1 || stats.CacheHits != 0 {
		t.Errorf("poison counters: hits=%d misses=%d, want 0/1", stats.CacheHits, stats.CacheMisses)
	}
	if _, err := cl2.Result(ctx, redo.ID); err != nil {
		t.Fatalf("recomputed result does not decode: %v", err)
	}
	// The recompute repopulated the entry: one more resubmission hits.
	again, err := cl2.SubmitStream(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("cache not repopulated after poison recompute")
	}
}
