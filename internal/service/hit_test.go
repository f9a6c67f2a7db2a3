package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
		// The hit keeps no request and no bytes of its own.
		data, _, ok := s.resultFor(hit)
		stored, _ := s.store.get(cold.key)
		if !ok || len(data) == 0 || &data[0] != &stored[0] {
			t.Errorf("hit %d does not share the store's bytes", i)
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
	want, _, _ := s.resultFor(runCold(t, s, hitRequest(1)))
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
				if got, st, ok := s.resultFor(j); !ok || st != StateDone || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("%s: state %s, ok %v, or wrong bytes", j.id, st, ok)
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

// TestStorePoisonBudgetAndSharing drives the one store directly: a flipped
// byte in an entry's file is a deleted miss once the bytes must come from
// disk; bytes over the resident budget are released and read back (verified)
// on demand; a resident entry is served without the file.
func TestStorePoisonBudgetAndSharing(t *testing.T) {
	dir := t.TempDir()
	encode := func(seed int64) []byte {
		run, err := galactos.Run(context.Background(), hitRequest(seed))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.WriteResult(&buf, run.Result); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(1), encode(2)
	c, err := newResultStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.put("a", a)
	c.put("b", b)
	if c.resident != int64(len(a)+len(b)) {
		t.Fatalf("resident = %d, want both entries (%d)", c.resident, len(a)+len(b))
	}

	// Resident: served without the file.
	os.Rename(c.path("a"), c.path("a")+".away")
	if got, ok := c.get("a"); !ok || &got[0] != &a[0] {
		t.Error("a resident entry was not served from memory")
	}
	os.Rename(c.path("a")+".away", c.path("a"))

	// Over budget: the least recently used entry's bytes go, its file stays.
	c.budget = int64(len(b))
	c.put("b", b)
	if c.resident != int64(len(b)) || c.len() != 2 {
		t.Fatalf("over budget: resident %d, %d entries; want %d, 2", c.resident, c.len(), len(b))
	}
	got, ok := c.get("a")
	if !ok || !bytes.Equal(got, a) || &got[0] == &a[0] {
		t.Error("a released entry was not read back from its file")
	}

	// A cache directory from before this store is just such files: an entry
	// dropped in by hand is indexed at open and served after verification.
	if err := os.WriteFile(filepath.Join(dir, "cat+fp"+cacheExt), a, 0o644); err != nil {
		t.Fatal(err)
	}
	if old, err := newResultStore(dir, 8); err != nil || old.len() != 3 {
		t.Fatalf("reopened store indexes %d entries (err %v), want 3", old.len(), err)
	} else if got, ok := old.get("cat+fp"); !ok || !bytes.Equal(got, a) {
		t.Error("a hand-written <key>.gres entry was not served")
	}
	os.Remove(filepath.Join(dir, "cat+fp"+cacheExt))

	// A fresh store on the directory (a restart) holds nothing resident, so
	// a flipped byte is found at the first read: deleted, a miss.
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
	if c2.len() != 2 || c2.resident != 0 {
		t.Fatalf("reopened store: %d entries, %d resident bytes; want 2, 0", c2.len(), c2.resident)
	}
	if _, ok := c2.get("b"); ok {
		t.Error("a flipped byte was served")
	}
	if _, err := os.Stat(c2.path("b")); !os.IsNotExist(err) || c2.len() != 1 {
		t.Errorf("the poisoned entry was not deleted (stat err %v, %d entries)", err, c2.len())
	}
	if got, ok := c2.get("a"); !ok || !bytes.Equal(got, a) {
		t.Error("the intact entry did not survive its neighbour's poison")
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
		if _, _, ok := s.resultFor(j); !ok {
			b.Fatal("hit has no result")
		}
	}
	b.ReportMetric(float64(s.jnl.Syncs()-base)/float64(b.N), "fsyncs/op")
}
