package service_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"galactos"
	"galactos/client"
	"galactos/internal/catalog"
	"galactos/internal/faultpoint"
	"galactos/internal/journal"
	"galactos/internal/lanes"
	"galactos/internal/service"
)

// hits is the number of times the armed plan's point name has been reached.
func hits(name string) uint64 {
	for _, st := range faultpoint.Stats() {
		if st.Name == name {
			return st.Hits
		}
	}
	return 0
}

// assertNotCached requires that a failed job left nothing in the cache: the
// store is empty, and the original catalog submitted inline computes fresh.
func assertNotCached(t *testing.T, svc *service.Server, cl *client.Client, orig galactos.Request) {
	t.Helper()
	if n := svc.Stats().CacheEntries; n != 0 {
		t.Errorf("%d cache entries after the failed job, want 0", n)
	}
	ctx := context.Background()
	st, err := cl.Submit(ctx, orig)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil || st.State != service.StateDone {
		t.Fatalf("original catalog after the failed job: %v, state %s", err, st.State)
	}
	if st.CacheHit {
		t.Error("the original catalog hit the cache: the failed run's answer was cached under its key")
	}
}

// TestPathRewrittenDuringRunFails replaces a Path catalog after its job has
// started and before the run reads the file: the worker is held in a delay
// on service.job.run, the point every run passes just before the backend
// opens the catalog. The run's own read is pinned to the submitted hash, so
// the job fails instead of caching the new file's answer under the old
// file's key.
func TestPathRewrittenDuringRunFails(t *testing.T) {
	svc, cl := startServer(t, service.Options{Workers: 1})
	ctx := context.Background()
	orig, changed := testRequest(400, 83), testRequest(400, 84)
	path := filepath.Join(t.TempDir(), "cat.glxc")
	if err := galactos.SaveCatalog(path, orig.Catalog); err != nil {
		t.Fatal(err)
	}
	faultpoint.Enable(faultpoint.NewPlan(0, faultpoint.Point{
		Name: "service.job.run", Kind: faultpoint.KindDelay, Delay: time.Second, Count: 1}))
	defer faultpoint.Disable()

	pathReq := orig
	pathReq.Catalog, pathReq.Path = nil, path
	st, err := cl.Submit(ctx, pathReq)
	if err != nil {
		t.Fatal(err)
	}
	for hits("service.job.run") == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := galactos.SaveCatalog(path, changed.Catalog); err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed || !strings.Contains(st.Error, "content hash mismatch") {
		t.Fatalf("job over a file replaced mid-run ended %s (%q), want failed on content hash mismatch", st.State, st.Error)
	}
	faultpoint.Disable()
	assertNotCached(t, svc, cl, orig)
}

// flipSource is a caller's in-process Source whose content changes after
// submission: its first pass (the submission's hash) reads a, every later
// one b.
type flipSource struct {
	a, b  *galactos.Catalog
	opens atomic.Int32
}

func (s *flipSource) Open() (catalog.Cursor, error) {
	c := s.a
	if s.opens.Add(1) > 1 {
		c = s.b
	}
	return galactos.NewMemorySource(c).Open()
}

// TestChangedSourceFailsInsteadOfPoisoningCache submits an in-process Source
// that yields another catalog on its second Open, the run's: the job fails
// on the content hash, and nothing is cached under the submitted key.
func TestChangedSourceFailsInsteadOfPoisoningCache(t *testing.T) {
	svc, cl := startServer(t, service.Options{Workers: 1})
	orig, changed := testRequest(400, 85), testRequest(400, 86)
	req := orig
	req.Catalog, req.Source = nil, &flipSource{a: orig.Catalog, b: changed.Catalog}
	if _, err := svc.Submit(req); err != nil {
		t.Fatal(err)
	}
	jobs := svc.Jobs()
	st, err := cl.Wait(context.Background(), jobs[len(jobs)-1].ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed || !strings.Contains(st.Error, "content hash mismatch") {
		t.Fatalf("job over a changed Source ended %s (%q), want failed on content hash mismatch", st.State, st.Error)
	}
	assertNotCached(t, svc, cl, orig)
}

// TestColdPathJobReadsCatalogTwice counts the opens of a cold local Path
// job's catalog file: one for the submission's hash and one for the run's
// read, which also verifies the hash. There is no separate re-hash pass.
func TestColdPathJobReadsCatalogTwice(t *testing.T) {
	_, cl := startServer(t, service.Options{Workers: 1})
	ctx := context.Background()
	req := testRequest(400, 87)
	path := filepath.Join(t.TempDir(), "cat.glxc")
	if err := galactos.SaveCatalog(path, req.Catalog); err != nil {
		t.Fatal(err)
	}
	req.Catalog, req.Path = nil, path
	// Armed to count, never to fire.
	faultpoint.Enable(faultpoint.NewPlan(0, faultpoint.Point{Name: "catalog.source.open", After: math.MaxUint64}))
	defer faultpoint.Disable()
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil || st.State != service.StateDone {
		t.Fatalf("cold Path job: %v, state %s (%q)", err, st.State, st.Error)
	}
	if n := hits("catalog.source.open"); n != 2 {
		t.Errorf("a cold local Path job opened its catalog %d times, want 2", n)
	}
}

// writeLegacySegment writes recs as one journal segment in dir the way a
// build that journaled the key's two halves beside it did: every record
// with a key also carries "cat_hash" and "fp". catHash overrides the
// cat_hash written for a job id.
func writeLegacySegment(t *testing.T, dir string, recs []journal.Record, catHash map[string]string) {
	t.Helper()
	seg := binary.LittleEndian.AppendUint32([]byte("GJL1"), 1)
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if r.Key != "" {
			cat, fp, _ := strings.Cut(r.Key, "+")
			if h, ok := catHash[r.ID]; ok {
				cat = h
			}
			payload = append([]byte(fmt.Sprintf(`{"cat_hash":%q,"fp":%q,`, cat, fp)), payload[1:]...)
		}
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(payload)))
		seg = binary.LittleEndian.AppendUint64(seg, lanes.CRC64(0, payload))
		seg = append(seg, payload...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplayIgnoresRetiredIdentityFields boots a server on a journal whose
// submit and hit records still carry the retired "cat_hash" and "fp" keys.
// It replays to the registry the same records without them give, and boot
// compaction drops the retired keys. Its two interrupted Path jobs are
// pinned to the catalog half of their keys: one whose file still holds that
// catalog runs to done, although its record's cat_hash names another
// catalog; one whose file was rewritten after its submission fails on the
// content hash.
func TestReplayIgnoresRetiredIdentityFields(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	now := time.Now().UTC()
	pathRequest := func(seed int64) galactos.Request {
		req := testRequest(300, seed)
		path := filepath.Join(dir, fmt.Sprintf("cat-%d.glxc", seed))
		if err := galactos.SaveCatalog(path, req.Catalog); err != nil {
			t.Fatal(err)
		}
		req.Catalog, req.Path = nil, path
		return req
	}
	kept, rewritten := pathRequest(90), pathRequest(91)
	const doneID, hitID, keptID, rewrittenID = "job-000001", "job-000002", "job-000003", "job-000004"
	hit := submitFor(t, hitID, testRequest(120, 92))
	hit.Type, hit.Request, hit.State, hit.CacheHit = journal.RecordHit, nil, string(service.StateDone), true
	rewrittenSub := submitFor(t, rewrittenID, rewritten)
	recs := []journal.Record{
		submitFor(t, doneID, testRequest(120, 93)),
		{Type: journal.RecordEnd, ID: doneID, Time: now, State: string(service.StateDone)},
		hit,
		submitFor(t, keptID, kept), {Type: journal.RecordStart, ID: keptID, Time: now},
		rewrittenSub, {Type: journal.RecordStart, ID: rewrittenID, Time: now},
	}
	if err := galactos.SaveCatalog(rewritten.Path, testRequest(300, 94).Catalog); err != nil {
		t.Fatal(err)
	}
	staleHash, _, _ := strings.Cut(rewrittenSub.Key, "+")

	boot := func(name string, write func(jdir string)) []string {
		t.Helper()
		sdir := filepath.Join(dir, name)
		jdir := filepath.Join(sdir, "journal")
		write(jdir)
		_, cl, _ := startRestartable(t, service.Options{Workers: 1, StateDir: sdir})
		ents, err := os.ReadDir(jdir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(jdir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(data, []byte(`"cat_hash"`)) || bytes.Contains(data, []byte(`"fp"`)) {
				t.Errorf("%s: compacted segment %s still carries a retired key", name, e.Name())
			}
		}
		for id, want := range map[string]service.State{keptID: service.StateDone, rewrittenID: service.StateFailed} {
			st, err := cl.Wait(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != want || (want == service.StateFailed) != strings.Contains(st.Error, "content hash mismatch") {
				t.Errorf("%s: requeued Path job %s ended %s (%q), want %s", name, id, st.State, st.Error, want)
			}
		}
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
	legacy := boot("legacy", func(jdir string) {
		writeLegacySegment(t, jdir, recs, map[string]string{keptID: staleHash})
	})
	current := boot("current", func(jdir string) { writeJournal(t, jdir, recs...) })
	if strings.Join(legacy, "\n") != strings.Join(current, "\n") {
		t.Errorf("a journal with the retired keys replays to\n  %s\nwithout them to\n  %s",
			strings.Join(legacy, "\n  "), strings.Join(current, "\n  "))
	}
}
