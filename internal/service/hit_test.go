package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"galactos"
	"galactos/internal/core"
	"galactos/internal/journal"
)

// hitRequest is a small deterministic job, as service_test.go's testRequest.
func hitRequest(seed int64) galactos.Request {
	cfg := galactos.DefaultConfig()
	cfg.RMax, cfg.NBins, cfg.LMax, cfg.Workers = 40, 4, 2, 1
	return galactos.Request{
		Catalog: galactos.GenerateClustered(250, 200, galactos.DefaultClusterParams(), seed),
		Config:  cfg,
		Label:   fmt.Sprintf("hit-seed-%d", seed),
	}
}

func newDurable(t testing.TB, dir string, retain int) *Server {
	t.Helper()
	s, err := New(Options{Workers: 1, RetainJobs: retain, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// fetch reads a done job's result the way the result endpoint serves it.
func fetch(s *Server, j *job) ([]byte, bool) {
	var data []byte
	_, ok := s.resultFor(j, func(r io.Reader, _ int64) { data, _ = io.ReadAll(r) })
	return data, ok
}

// runCold submits req, waits for it to finish, and requires a fresh run.
// The worker journals the job's end after that; Shutdown is the barrier that
// waits for it.
func runCold(t testing.TB, s *Server, req galactos.Request) *job {
	t.Helper()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); !j.terminal(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s still %s after 30 s", j.id, j.status().State)
		}
	}
	if st := j.status(); st.State != StateDone || st.CacheHit {
		t.Fatalf("cold job ended %+v", st)
	}
	return j
}

// TestBootIsOneCommit: a boot on a populated state dir writes its compacted
// journal as one new segment, header and records under one fsync, and leaves
// that segment alone in the journal: opening the journal creates no segment
// of its own for the compaction to delete.
func TestBootIsOneCommit(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, dir, 8)
	cold := runCold(t, s, hitRequest(1))
	s.Shutdown(context.Background())
	for boot := 1; boot <= 2; boot++ {
		s = newDurable(t, dir, 8)
		if got := s.jnl.Syncs(); got != 1 {
			t.Errorf("boot %d cost %d journal fsyncs, want 1", boot, got)
		}
		if segs, err := s.jnl.Segments(); err != nil || segs != 1 {
			t.Errorf("boot %d left %d segments (%v), want 1", boot, segs, err)
		}
		if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != cold.id || jobs[0].State != StateDone {
			t.Fatalf("boot %d restored %+v, want only the done %s", boot, jobs, cold.id)
		}
		s.Shutdown(context.Background())
	}
}

// TestJournalCommitsPerJob counts the durability contract's price with the
// retention bound full, so every terminal transition also evicts: a cold job
// is three fsyncs (submit; start; end + evict), a hit is one (hit + evict).
// At the parent commit they were four and three.
func TestJournalCommitsPerJob(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, dir, 1)
	runCold(t, s, hitRequest(1))
	s.Shutdown(context.Background())

	s = newDurable(t, dir, 1)
	base := s.jnl.Syncs()
	cold := runCold(t, s, hitRequest(2))
	s.Shutdown(context.Background())
	if got := s.jnl.Syncs() - base; got != 3 {
		t.Errorf("a cold job cost %d journal fsyncs, want 3", got)
	}

	s = newDurable(t, dir, 1)
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != cold.id {
		t.Fatalf("retention of 1 holds %+v, want only %s", jobs, cold.id)
	}
	restored, _ := s.Job(cold.id)
	coldBytes, ok := fetch(s, restored)
	if !ok || core.VerifyResult(coldBytes) != nil {
		t.Fatalf("the restored cold job's result: ok %v, %d bytes", ok, len(coldBytes))
	}
	for i := 0; i < 3; i++ {
		base = s.jnl.Syncs()
		hit, err := s.Submit(hitRequest(2))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.jnl.Syncs() - base; got != 1 {
			t.Errorf("hit %d cost %d journal fsyncs, want 1", i, got)
		}
		if st := hit.status(); st.State != StateDone || !st.CacheHit || st.Key != cold.key {
			t.Fatalf("hit %d = %+v, want a done cache hit keyed %s", i, st, cold.key)
		}
		if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != hit.id {
			t.Fatalf("after hit %d the registry holds %+v, want only the hit", i, jobs)
		}
		// A disk-backed hit keeps no request and no bytes: its result
		// streams from the store's file, equal to the cold run's.
		if data, _ := hit.resultBytes(); data != nil {
			t.Errorf("hit %d holds %d bytes of its own", i, len(data))
		}
		if got, ok := fetch(s, hit); !ok || !bytes.Equal(got, coldBytes) {
			t.Errorf("hit %d does not stream the cold run's bytes", i)
		}
		if hit.req.Catalog != nil || hit.src != nil {
			t.Errorf("hit %d retains its request's catalog", i)
		}
	}
}

// TestConcurrentHitsReplayToSameRegistry submits hits from several
// goroutines while a cold job runs, then restarts: every hit got the
// store's bytes, retention held, and the journal — batches interleaved by
// whatever order the commits took — replays to exactly the registry the
// live server ended with.
func TestConcurrentHitsReplayToSameRegistry(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, dir, 5)
	want, _ := fetch(s, runCold(t, s, hitRequest(1)))
	errs := make(chan error, 9)
	go func() {
		_, err := s.Submit(hitRequest(2)) // a miss, queued beside the hits
		errs <- err
	}()
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				j, err := s.Submit(hitRequest(1))
				if err != nil {
					errs <- err
					return
				}
				if got, ok := fetch(s, j); !ok || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("%s: state %s, ok %v, or wrong bytes", j.id, j.status().State, ok)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < 9; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	s.Shutdown(context.Background()) // drains the cold job
	live := s.Jobs()
	if len(live) != 5 {
		t.Fatalf("retention of 5 holds %d jobs", len(live))
	}
	s2 := newDurable(t, dir, 5)
	replayed := s2.Jobs()
	if len(replayed) != len(live) || s2.jnl.Dropped() != 0 {
		t.Fatalf("replayed %d jobs (dropped %d frames), the live registry had %d", len(replayed), s2.jnl.Dropped(), len(live))
	}
	for i := range live {
		if a, b := live[i], replayed[i]; a.ID != b.ID || a.State != b.State || a.CacheHit != b.CacheHit || a.Key != b.Key {
			t.Errorf("job %d: live %s/%s/hit=%v, replayed %s/%s/hit=%v", i, a.ID, a.State, a.CacheHit, b.ID, b.State, b.CacheHit)
		}
	}
}

// copyDir copies a state directory (journal, cache, jobs) file by file.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTornHitCommitSweep kills the server at every byte of a hit's commit
// (the hit record and the evict record riding with it, one write): the
// segment is truncated at each offset and a server booted on it. The
// replayed registry holds either no such job — and then the job the commit
// would have evicted is still there — or the hit, done, cache_hit, with its
// key; never a failed or re-queued job. At most one frame is dropped, and
// the next id is never one a surviving job holds.
func TestTornHitCommitSweep(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, dir, 1)
	cold := runCold(t, s, hitRequest(5))
	s.Shutdown(context.Background())
	s = newDurable(t, dir, 1) // boot compaction leaves one segment: the cold job's submit and end
	seg := filepath.Join(dir, "journal")
	ents, err := os.ReadDir(seg)
	if err != nil || len(ents) != 1 {
		t.Fatalf("journal holds %d segments (%v), want the one open segment", len(ents), err)
	}
	seg = filepath.Join(seg, ents[0].Name())
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := s.Submit(hitRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) <= int(before.Size()) {
		t.Fatal("the hit wrote nothing to the open segment")
	}

	sawNone, sawHit := false, false
	for cut := int(before.Size()); cut <= len(whole); cut++ {
		torn := t.TempDir()
		copyDir(t, dir, torn)
		if err := os.Truncate(filepath.Join(torn, "journal", filepath.Base(seg)), int64(cut)); err != nil {
			t.Fatal(err)
		}
		s2, err := New(Options{Workers: 1, RetainJobs: 1, StateDir: torn})
		if err != nil {
			t.Fatalf("cut %d: boot: %v", cut, err)
		}
		if n := s2.jnl.Dropped(); n > 1 {
			t.Errorf("cut %d: replay dropped %d frames", cut, n)
		}
		jobs := s2.Jobs()
		if len(jobs) != 1 || jobs[0].State != StateDone || jobs[0].Key != cold.key {
			t.Fatalf("cut %d: registry %+v, want exactly one done job keyed %s", cut, jobs, cold.key)
		}
		switch jobs[0].ID {
		case cold.id: // the commit never happened
			sawNone = true
			if jobs[0].CacheHit {
				t.Errorf("cut %d: the cold job came back as a cache hit", cut)
			}
		case hit.id:
			sawHit = true
			if !jobs[0].CacheHit {
				t.Errorf("cut %d: the hit came back without cache_hit", cut)
			}
		default:
			t.Fatalf("cut %d: unknown job %s", cut, jobs[0].ID)
		}
		if st := s2.Stats(); st.RequeuedJobs != 0 || st.Failed != 0 {
			t.Errorf("cut %d: replay re-queued %d and failed %d jobs", cut, st.RequeuedJobs, st.Failed)
		}
		next, err := s2.Submit(hitRequest(5))
		if err != nil {
			t.Fatalf("cut %d: submit after replay: %v", cut, err)
		}
		if next.id <= jobs[0].ID {
			t.Errorf("cut %d: next id %s does not follow surviving job %s", cut, next.id, jobs[0].ID)
		}
		s2.Shutdown(context.Background())
	}
	if !sawNone || !sawHit {
		t.Errorf("the sweep saw no-job=%v hit=%v, want both outcomes", sawNone, sawHit)
	}
}

// encodeRun is the encoded result of hitRequest(seed), run directly.
func encodeRun(t *testing.T, seed int64) []byte {
	t.Helper()
	run, err := galactos.Run(context.Background(), hitRequest(seed))
	if err != nil {
		t.Fatal(err)
	}
	return core.EncodeResult(run.Result)
}

// TestStorePoisonAndReopen drives the one store directly. A disk-backed
// entry is its file and nothing else: a lookup hands out no bytes, and the
// file opened for reading holds the stored bytes. An entry dropped in by
// hand is indexed at open and served after verification, and a restart's
// store finds a flipped byte at the first read: deleted, a miss.
func TestStorePoisonAndReopen(t *testing.T) {
	dir := t.TempDir()
	a, b := encodeRun(t, 1), encodeRun(t, 2)
	// stored reads what c serves under key.
	stored := func(c *resultStore, key string) ([]byte, bool) {
		if data, ok := c.get(key); !ok || data != nil {
			return nil, false
		}
		f, size, ok := c.open(key)
		if !ok {
			return nil, false
		}
		defer f.Close()
		data, err := io.ReadAll(io.NewSectionReader(f, 0, size))
		return data, err == nil
	}
	c, err := newResultStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !c.put("a", a) || !c.put("b", b) {
		t.Fatal("a disk-backed store does not serve its entries from files")
	}
	for key, want := range map[string][]byte{"a": a, "b": b} {
		if got, ok := stored(c, key); !ok || !bytes.Equal(got, want) {
			t.Errorf("entry %s does not read back as stored", key)
		}
	}

	// A cache directory from before this store is just such files: an entry
	// dropped in by hand is indexed at open and served after verification.
	if err := os.WriteFile(filepath.Join(dir, "cat+fp"+cacheExt), a, 0o644); err != nil {
		t.Fatal(err)
	}
	if old, err := newResultStore(dir, 8); err != nil || old.len() != 3 {
		t.Fatalf("reopened store indexes %d entries (err %v), want 3", old.len(), err)
	} else if got, ok := stored(old, "cat+fp"); !ok || !bytes.Equal(got, a) {
		t.Error("a hand-written <key>.gres entry was not served")
	}
	os.Remove(filepath.Join(dir, "cat+fp"+cacheExt))

	// A fresh store on the directory (a restart) finds a flipped byte at the
	// first read: deleted, a miss.
	raw, err := os.ReadFile(c.path("b"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	os.WriteFile(c.path("b"), raw, 0o644)
	c2, err := newResultStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c2.len() != 2 {
		t.Fatalf("reopened store: %d entries, want 2", c2.len())
	}
	if _, ok := c2.get("b"); ok {
		t.Error("a flipped byte was served")
	}
	if _, err := os.Stat(c2.path("b")); !os.IsNotExist(err) || c2.len() != 1 {
		t.Errorf("the poisoned entry was not deleted (stat err %v, %d entries)", err, c2.len())
	}
	if got, ok := stored(c2, "a"); !ok || !bytes.Equal(got, a) {
		t.Error("the intact entry did not survive its neighbour's poison")
	}
}

// TestStoreSweepsOrphanedTempFiles: a kill between WriteFileAtomic's
// CreateTemp and its Rename leaves <key>.gres.tmpNNN in the cache directory.
// The next store deletes it at open and does not index it; the entries
// beside it stay, also when the next store is a disabled one.
func TestStoreSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	data := encodeRun(t, 1)
	c, err := newResultStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.put("a", data)
	orphan := c.path("b") + ".tmp123456"
	if err := os.WriteFile(orphan, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := newResultStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("the orphaned temp file survived the open (stat err %v)", err)
	}
	if _, ok := c2.get("a"); !ok || c2.len() != 1 {
		t.Errorf("after the sweep the store indexes %d entries, want only a", c2.len())
	}
	// A disabled store indexes nothing and deletes no entry.
	if off, err := newResultStore(dir, -1); err != nil || off.len() != 0 {
		t.Fatalf("a disabled store: err %v, %d entries", err, off.len())
	}
	if _, err := os.Stat(c.path("a")); err != nil {
		t.Errorf("a disabled store deleted an entry: %v", err)
	}
}

// TestDiskBackedResultGone: a disk-backed job reads its result from the
// store's file, so it answers 410 Gone once the file is gone — evicted by a
// newer result under CacheEntries 1, or found corrupt, and deleted, at the
// fetch after a byte of it flipped between Submit and fetch.
func TestDiskBackedResultGone(t *testing.T) {
	s, err := New(Options{Workers: 1, CacheEntries: 1, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	get := func(j *job) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.id+"/result", nil))
		return rec
	}
	first := runCold(t, s, hitRequest(1))
	if rec := get(first); rec.Code != http.StatusOK || core.VerifyResult(rec.Body.Bytes()) != nil {
		t.Fatalf("first job's result: HTTP %d, %d bytes", rec.Code, rec.Body.Len())
	}
	second := runCold(t, s, hitRequest(2))
	if rec := get(first); rec.Code != http.StatusGone {
		t.Errorf("a live job whose entry was evicted: HTTP %d %q, want 410", rec.Code, rec.Body.String())
	}

	hit, err := s.Submit(hitRequest(2))
	if err != nil || !hit.status().CacheHit {
		t.Fatalf("resubmission: %v, want a cache hit", err)
	}
	path := s.store.path(second.key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	os.WriteFile(path, raw, 0o644)
	if rec := get(hit); rec.Code != http.StatusGone {
		t.Errorf("a hit whose file was corrupted after its submit: HTTP %d, want 410", rec.Code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) || s.store.len() != 0 {
		t.Errorf("the corrupt entry was not deleted (stat err %v, %d entries)", err, s.store.len())
	}
}

// TestOversizedSubmitIs413 is the service half of the oversized-submit bug:
// the body is read through a bound under which any accepted request fits a
// journal frame, and a larger one is refused with a pointer at Path.
func TestOversizedSubmitIs413(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	body := strings.NewReader(`{"label":"` + strings.Repeat("x", maxRequestBytes) + `"}`)
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", body))
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "path") {
		t.Errorf("oversized submit: HTTP %d %q, want 413 naming path", rec.Code, rec.Body.String())
	}
	if len(s.Jobs()) != 0 {
		t.Error("an oversized submit registered a job")
	}

	// The bound's premise: the densest body the decoder accepts re-serializes
	// under 16 times larger.
	dense := `{"catalog":{"Galaxies":[` + strings.TrimSuffix(strings.Repeat("{},", 1000), ",") + `]}}`
	var req galactos.Request
	if err := json.Unmarshal([]byte(dense), &req); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) >= 16*len(dense) || 16*maxRequestBytes > journal.MaxFrameBytes {
		t.Errorf("a %d-byte body re-serializes to %d bytes: the 16x premise of maxRequestBytes fails", len(dense), len(again))
	}
}

// BenchmarkServiceHit is the in-process cost of a cache hit on a durable
// server whose retention is full: Submit (hash, lookup, one journal commit
// carrying the hit and the eviction) plus the result fetch.
func BenchmarkServiceHit(b *testing.B) {
	s := newDurable(b, b.TempDir(), 8)
	req := hitRequest(3)
	runCold(b, s, req)
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(req); err != nil {
			b.Fatal(err)
		}
	}
	base := s.jnl.Syncs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := s.resultFor(j, func(r io.Reader, _ int64) { io.Copy(io.Discard, r) }); !ok {
			b.Fatal("hit has no result")
		}
	}
	b.ReportMetric(float64(s.jnl.Syncs()-base)/float64(b.N), "fsyncs/op")
}
