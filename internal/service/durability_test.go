package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
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
			Key: sub.key, Label: req.Label, Request: sub.request,
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

// TestRequeuedJobRestartsForeignCheckpoints: an interrupted sharded job
// whose checkpoint directory an older build left — its checkpoints beside a
// version-3 manifest — starts fresh after the upgrade, says so on its event
// log, and ends with the bits of the same request run afresh: none of the
// older build's partials is merged.
func TestRequeuedJobRestartsForeignCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := testRequest(300, 9)
	req.Backend = galactos.BackendSpec{Name: "sharded", Shards: 2}
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
	const id = "job-000001"
	jnl, _, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journal.Record{
		{Type: journal.RecordSubmit, ID: id, Time: time.Now().UTC(), Key: catHash + "+" + fp,
			Label: req.Label, Request: reqJSON},
		{Type: journal.RecordStart, ID: id, Time: time.Now().UTC()},
	} {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// The job's directory as the older build left it.
	jobDir := filepath.Join(dir, "jobs", id)
	old := req
	old.Backend.CheckpointDir, old.Backend.Keep = jobDir, true
	if _, err := galactos.Run(ctx, old); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(jobDir, "manifest.json")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = 3
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, cl, _ := startRestartable(t, service.Options{Workers: 1, StateDir: dir})
	var events []string
	st, err := cl.Watch(ctx, id, func(ev client.Event) { events = append(events, ev.Message) })
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("requeued job over a version-3 directory ended %s (%s), want done", st.State, st.Error)
	}
	if log := strings.Join(events, "\n"); !strings.Contains(log, "starting fresh") || !strings.Contains(log, "version 3") {
		t.Errorf("the job's event log does not say it started fresh over a version-3 directory:\n%s", log)
	}
	for _, u := range st.Units {
		if u.Resumed {
			t.Errorf("unit %d resumed from the older build's checkpoint", u.Unit)
		}
	}
	got, err := cl.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := galactos.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pairs != want.Result.Pairs || got.MaxAbsDiff(want.Result) != 0 {
		t.Errorf("requeued job differs from a fresh run: pairs %d vs %d, max |diff| %v",
			got.Pairs, want.Result.Pairs, got.MaxAbsDiff(want.Result))
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
			Key: "cat+fp",
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

// submitFor is the submit record a server journals for req under id: its
// cache key, label and wire-form request.
func submitFor(t testing.TB, id string, req galactos.Request) journal.Record {
	t.Helper()
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
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return journal.Record{
		Type: journal.RecordSubmit, ID: id, Time: time.Now().UTC(),
		Key: catHash + "+" + fp, Label: req.Label, Request: data,
	}
}

// writeJournal commits recs to a fresh journal in dir, as one batch.
func writeJournal(t testing.TB, dir string, recs ...journal.Record) {
	t.Helper()
	jnl, _, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

// journalBytes is the size of every file in the journal directory.
func journalBytes(t testing.TB, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestCompactionKeepsOnlyRunnableRequests hand-writes the journal a killed
// server leaves: three retained jobs that ended (done, failed, cancelled) on
// inline catalogs of 120 or 5,000 galaxies, and one killed mid-run. Boot's
// compaction keeps a request only for the job that can still run: that job
// re-runs from it to the bits of a fresh run, no terminal job's submit
// carries one, and the journal holds under 1 KB per retained job. A kill
// between Compact's write and its deletes leaves the old segments beside
// the compacted one, and both together replay to the same registry.
func TestCompactionKeepsOnlyRunnableRequests(t *testing.T) {
	for _, n := range []int{120, 5000} {
		t.Run(fmt.Sprintf("galaxies=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			jdir := filepath.Join(dir, "journal")
			ctx := context.Background()
			now := time.Now().UTC()

			var recs []journal.Record
			terminal := map[string]bool{}
			for i, end := range []journal.Record{
				{State: string(service.StateDone)},
				{State: string(service.StateFailed), Error: "engine: out of memory"},
				{State: string(service.StateCancelled), Error: "context canceled"},
			} {
				id := fmt.Sprintf("job-%06d", i+1)
				end.Type, end.ID, end.Time = journal.RecordEnd, id, now
				recs = append(recs, submitFor(t, id, testRequest(n, int64(i+1))), end)
				terminal[id] = true
			}
			const liveID = "job-000004"
			live := testRequest(300, 7)
			recs = append(recs, submitFor(t, liveID, live), journal.Record{Type: journal.RecordStart, ID: liveID, Time: now})
			writeJournal(t, jdir, recs...)
			old, err := os.ReadDir(jdir)
			if err != nil {
				t.Fatal(err)
			}
			oldSegs := map[string][]byte{}
			for _, e := range old {
				if oldSegs[e.Name()], err = os.ReadFile(filepath.Join(jdir, e.Name())); err != nil {
					t.Fatal(err)
				}
			}

			// The registry as a client sees it, less the live job's run
			// statistics, which a restored job does not keep.
			registry := func(cl *client.Client) []string {
				t.Helper()
				jobs, err := cl.Jobs(ctx)
				if err != nil {
					t.Fatal(err)
				}
				var out []string
				for _, j := range jobs {
					out = append(out, fmt.Sprintf("%s %s %s %q %v %q", j.ID, j.State, j.Key, j.Label, j.CacheHit, j.Error))
				}
				return out
			}
			// requests maps each journaled submission to whether it still
			// carries its request; reading opens (and leaves) one empty
			// segment, which replays to nothing.
			requests := func() map[string]bool {
				t.Helper()
				jnl, recs, err := journal.Open(journal.Options{Dir: jdir})
				if err != nil {
					t.Fatal(err)
				}
				defer jnl.Close()
				out := map[string]bool{}
				for _, r := range recs {
					if r.Type == journal.RecordSubmit {
						out[r.ID] = len(r.Request) > 0
					}
				}
				return out
			}

			svc1, cl1, stop1 := startRestartable(t, service.Options{Workers: 1, StateDir: dir})
			if st := svc1.Stats(); st.RestoredJobs != 3 || st.RequeuedJobs != 1 {
				t.Fatalf("restored %d, re-enqueued %d; want 3 and 1", st.RestoredJobs, st.RequeuedJobs)
			}
			st, err := cl1.Wait(ctx, liveID)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != service.StateDone {
				t.Fatalf("re-enqueued job ended %s (%s), want done", st.State, st.Error)
			}
			got, err := cl1.Result(ctx, liveID)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := galactos.Run(ctx, live)
			if err != nil {
				t.Fatal(err)
			}
			if err := samePayload(got, fresh.Result); err != nil {
				t.Errorf("re-run from the compacted journal differs from a fresh run: %v", err)
			}
			before := registry(cl1)
			stop1()
			for id, carries := range requests() {
				if carries == terminal[id] {
					t.Errorf("%s: terminal at boot %v, carries its request %v; want only the runnable job to", id, terminal[id], carries)
				}
			}

			// A kill between Compact's write and its deletes: the old
			// segments are back beside the compacted one.
			for name, data := range oldSegs {
				if err := os.WriteFile(filepath.Join(jdir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			svc2, cl2, stop2 := startRestartable(t, service.Options{Workers: 1, StateDir: dir})
			if got := svc2.Stats().RestoredJobs; got != 4 {
				t.Errorf("RestoredJobs after the torn compaction = %d, want 4", got)
			}
			if after := registry(cl2); !reflect.DeepEqual(after, before) {
				t.Errorf("old and compacted segments replay to\n%s\nwant\n%s", strings.Join(after, "\n"), strings.Join(before, "\n"))
			}
			stop2()
			if size := journalBytes(t, jdir); size > 4*1024 {
				t.Errorf("journal of 4 retained terminal jobs holds %d bytes, want at most 1 KB each", size)
			}
			for id, carries := range requests() {
				if carries {
					t.Errorf("%s is terminal but its submit carries its request", id)
				}
			}
		})
	}
}

// BenchmarkServiceBoot times a restart of a -state-dir server holding 64
// finished jobs submitted with inline catalogs, 120 galaxies each as in
// the repository benchmark's service_mix fixture and 5,000: New (journal
// replay, compaction, cache index) and Shutdown. The state dir is booted
// once before timing, so each timed boot reads the journal a previous boot
// compacted, as every restart after the first does. journal_B is the
// journal's size after the timed boots.
func BenchmarkServiceBoot(b *testing.B) {
	for _, n := range []int{120, 5000} {
		b.Run(fmt.Sprintf("galaxies=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			sub := submitFor(b, "", testRequest(n, 1))
			recs := make([]journal.Record, 0, 2*64)
			for i := 1; i <= 64; i++ {
				sub.ID = fmt.Sprintf("job-%06d", i)
				recs = append(recs, sub, journal.Record{Type: journal.RecordEnd, ID: sub.ID, Time: sub.Time, State: string(service.StateDone)})
			}
			writeJournal(b, filepath.Join(dir, "journal"), recs...)
			boot := func() {
				svc, err := service.New(service.Options{Workers: 1, StateDir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if err := svc.Shutdown(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			boot()
			for b.Loop() {
				boot()
			}
			b.ReportMetric(float64(journalBytes(b, filepath.Join(dir, "journal"))), "journal_B")
		})
	}
}
