package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, rotate int64) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(Options{Dir: dir, RotateBytes: rotate})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return j, recs
}

func submitRec(id string) Record {
	return Record{
		Type: RecordSubmit, ID: id, Time: time.Unix(1700000000, 0).UTC(),
		Key: "cat+fp", Label: "t",
		Request: json.RawMessage(`{"config":{}}`),
	}
}

func ids(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Type + ":" + r.ID
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs := openT(t, dir, 0)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		submitRec("job-1"),
		{Type: RecordStart, ID: "job-1"},
		{Type: RecordEnd, ID: "job-1", State: "done", CacheHit: true},
		submitRec("job-2"),
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if err := j.Append(Record{Type: RecordStart, ID: "x"}); err == nil {
		t.Error("append after Close succeeded")
	}

	j2, got := openT(t, dir, 0)
	defer j2.Close()
	if fmt.Sprint(ids(got)) != fmt.Sprint(ids(want)) {
		t.Fatalf("replay %v, want %v", ids(got), ids(want))
	}
	if got[0].Key != "cat+fp" || string(got[0].Request) != `{"config":{}}` ||
		!got[0].Time.Equal(want[0].Time) {
		t.Errorf("submit record did not round-trip: %+v", got[0])
	}
	if got[2].State != "done" || !got[2].CacheHit {
		t.Errorf("end record did not round-trip: %+v", got[2])
	}
	if j2.Dropped() != 0 {
		t.Errorf("clean journal dropped %d frames", j2.Dropped())
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 64) // tiny threshold: every few records rotate
	const n = 20
	for i := 0; i < n; i++ {
		if err := j.Append(submitRec(fmt.Sprintf("job-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := j.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if segs < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", segs)
	}
	j.Close()

	j2, got := openT(t, dir, 64)
	defer j2.Close()
	if len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
	for i, r := range got {
		if want := fmt.Sprintf("job-%03d", i); r.ID != want {
			t.Fatalf("record %d is %s, want %s (cross-segment order broken)", i, r.ID, want)
		}
	}
}

// TestTornTailDropsOnlyTail simulates the kill-mid-write shape: the last
// frame is cut short. Replay must keep everything before it and drop the
// tail as poison.
func TestTornTailDropsOnlyTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	for i := 0; i < 5; i++ {
		if err := j.Append(submitRec(fmt.Sprintf("job-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	seg := filepath.Join(dir, segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	j2, got := openT(t, dir, 0)
	defer j2.Close()
	if len(got) != 4 {
		t.Fatalf("torn tail: replayed %d records, want 4", len(got))
	}
	if j2.Dropped() == 0 {
		t.Error("torn tail not counted as dropped")
	}
}

// TestCorruptFrameEndsSegmentReplay flips a byte inside an early record's
// payload: replay keeps the records before it and distrusts everything
// after, while later segments still replay.
func TestCorruptFrameEndsSegmentReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	for i := 0; i < 4; i++ {
		if err := j.Append(submitRec(fmt.Sprintf("job-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Rotate by hand so a second, clean segment follows the corrupt one.
	j.mu.Lock()
	err := j.rotateLocked()
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitRec("job-clean")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, got := openT(t, dir, 0)
	defer j2.Close()
	if len(got) == 0 || len(got) >= 5 {
		t.Fatalf("corrupt mid-segment: replayed %d records, want a strict prefix plus the clean segment", len(got))
	}
	last := got[len(got)-1]
	if last.ID != "job-clean" {
		t.Errorf("clean later segment not replayed; last record %s", last.ID)
	}
	if j2.Dropped() == 0 {
		t.Error("corruption not counted as dropped")
	}
}

func TestCompactRewritesLiveSetOnly(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 64)
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("job-%d", i)
		j.Append(submitRec(id))
		j.Append(Record{Type: RecordEnd, ID: id, State: "done"})
	}
	live := []Record{
		submitRec("job-8"), {Type: RecordEnd, ID: "job-8", State: "done"},
		submitRec("job-9"), {Type: RecordEnd, ID: "job-9", State: "done"},
	}
	if err := j.Compact(live); err != nil {
		t.Fatal(err)
	}
	segs, err := j.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if segs != 1 {
		t.Fatalf("after compaction %d segments remain, want 1", segs)
	}
	// The compacted journal keeps accepting appends.
	if err := j.Append(submitRec("job-10")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, got := openT(t, dir, 0)
	defer j2.Close()
	want := []string{"submit:job-8", "end:job-8", "submit:job-9", "end:job-9", "submit:job-10"}
	if fmt.Sprint(ids(got)) != fmt.Sprint(want) {
		t.Fatalf("replay after compaction %v, want %v", ids(got), want)
	}
}

func TestReduceFoldsLifecycleAndEviction(t *testing.T) {
	recs := []Record{
		submitRec("a"),
		{Type: RecordStart, ID: "a"},
		{Type: RecordEnd, ID: "a", State: "done"},
		submitRec("b"),
		{Type: RecordStart, ID: "b"}, // running at crash: no end
		submitRec("c"),               // queued at crash
		submitRec("d"),
		{Type: RecordEnd, ID: "d", State: "failed", Error: "boom"},
		{Type: RecordEvict, ID: "d"},                  // evicted: must not appear
		{Type: RecordEnd, ID: "ghost", State: "done"}, // orphan: ignored
		submitRec("a"), // duplicate from a raced compaction: first wins
		{Type: RecordEnd, ID: "a", State: "failed"}, // later end must not override
	}
	jobs := Reduce(recs)
	if len(jobs) != 3 {
		t.Fatalf("Reduce returned %d jobs, want 3 (a, b, c)", len(jobs))
	}
	a, b, c := jobs[0], jobs[1], jobs[2]
	if a.Submit.ID != "a" || !a.Terminal() || a.End.State != "done" || !a.Started {
		t.Errorf("job a folded wrong: %+v", a)
	}
	if b.Submit.ID != "b" || b.Terminal() || !b.Started {
		t.Errorf("job b folded wrong: %+v", b)
	}
	if c.Submit.ID != "c" || c.Terminal() || c.Started {
		t.Errorf("job c folded wrong: %+v", c)
	}
}

// TestCompactionCrashIdempotence replays old and compacted segments
// together — the state a kill between Compact's write and its deletes
// leaves — and requires the same folded state as the compacted journal
// alone.
func TestCompactionCrashIdempotence(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	j.Append(submitRec("job-1"))
	j.Append(Record{Type: RecordEnd, ID: "job-1", State: "done"})
	j.Append(submitRec("job-2"))
	j.Close()

	// Hand-build the "compacted but unswept" state: a fresh journal whose
	// dir still holds the old segment plus a compacted copy.
	j2, recs := openT(t, dir, 0)
	live := Reduce(recs)
	var compacted []Record
	for _, jr := range live {
		compacted = append(compacted, jr.Submit)
		if jr.End != nil {
			compacted = append(compacted, *jr.End)
		}
	}
	for _, r := range compacted {
		if err := j2.Append(r); err != nil { // duplicates of segment 1's content
			t.Fatal(err)
		}
	}
	j2.Close()

	j3, both := openT(t, dir, 0)
	defer j3.Close()
	jobs := Reduce(both)
	if len(jobs) != 2 {
		t.Fatalf("idempotence: %d jobs after duplicated replay, want 2", len(jobs))
	}
	if !jobs[0].Terminal() || jobs[0].End.State != "done" || jobs[1].Terminal() {
		t.Errorf("duplicated replay changed folded state: %+v", jobs)
	}
}
