package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func hitRec(id string) Record {
	return Record{
		Type: RecordHit, ID: id, Time: time.Unix(1700000100, 0).UTC(),
		Key: "cat+fp", Label: "t",
		State: "done", CacheHit: true,
	}
}

func openSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := segments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("segments(%s) = %v, %v", dir, seqs, err)
	}
	return filepath.Join(dir, segName(seqs[len(seqs)-1]))
}

// TestAppendBatchIsOneCommit: n records appended together are n frames in
// order under one fsync, and one record is still one fsync.
func TestAppendBatchIsOneCommit(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	base := j.Syncs()
	if err := j.Append(submitRec("job-1")); err != nil {
		t.Fatal(err)
	}
	if got := j.Syncs() - base; got != 1 {
		t.Errorf("one record cost %d fsyncs, want 1", got)
	}
	batch := []Record{hitRec("job-2"), {Type: RecordEvict, ID: "job-1"}, {Type: RecordEvict, ID: "job-0"}}
	if err := j.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if got := j.Syncs() - base; got != 2 {
		t.Errorf("a three-record batch cost %d fsyncs, want 1", got-1)
	}
	j.Close()
	j2, got := openT(t, dir, 0)
	defer j2.Close()
	if want := "[submit:job-1 hit:job-2 evict:job-1 evict:job-0]"; fmt.Sprint(ids(got)) != want {
		t.Errorf("replay %v, want %s", ids(got), want)
	}
}

// TestAppendRejectsOversizedFrame is the journal half of the oversized-
// submit bug: replay treats a length above MaxFrameBytes as corruption and
// drops that frame and every record after it, so Append must never write
// one. The batch that holds it fails whole, nothing reaches the file, and
// the journal carries on.
func TestAppendRejectsOversizedFrame(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	if err := j.Append(submitRec("job-1")); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(openSegmentPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	huge := submitRec("job-2")
	huge.Request = nil
	huge.Label = strings.Repeat("x", MaxFrameBytes)
	err = j.Append(Record{Type: RecordStart, ID: "job-1"}, huge)
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("oversized record: err = %v, want a frame-limit error", err)
	}
	if after, _ := os.Stat(openSegmentPath(t, dir)); after.Size() != before.Size() {
		t.Errorf("a rejected batch wrote %d bytes", after.Size()-before.Size())
	}
	if err := j.Append(Record{Type: RecordEnd, ID: "job-1", State: "done"}); err != nil {
		t.Fatalf("append after a rejected batch: %v", err)
	}
	j.Close()
	j2, got := openT(t, dir, 0)
	defer j2.Close()
	if want := "[submit:job-1 end:job-1]"; fmt.Sprint(ids(got)) != want || j2.Dropped() != 0 {
		t.Errorf("replay %v (dropped %d), want %s and nothing dropped", ids(got), j2.Dropped(), want)
	}
}

// encodeFramePerRecord is the frame encoder as it was before batches: one
// allocation per record. The bytes on disk must not have moved.
func encodeFramePerRecord(r Record) []byte {
	payload, _ := json.Marshal(r)
	frame := make([]byte, 12+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(frame[4:12], crc64.Checksum(payload, crc64.MakeTable(crc64.ECMA)))
	copy(frame[12:], payload)
	return frame
}

// TestJournalBytesUnchanged: a segment written by the previous encoder, one
// frame at a time, is byte for byte what a batch Append writes, and replays.
func TestJournalBytesUnchanged(t *testing.T) {
	recs := []Record{submitRec("job-1"), {Type: RecordStart, ID: "job-1", Time: time.Unix(1700000001, 0).UTC()},
		{Type: RecordEnd, ID: "job-1", State: "failed", Error: "boom <&>"}, {Type: RecordEvict, ID: "job-1"}}
	old := binary.LittleEndian.AppendUint32([]byte(segMagic), segVersion)
	for _, r := range recs {
		old = append(old, encodeFramePerRecord(r)...)
	}
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	if err := j.Append(recs...); err != nil {
		t.Fatal(err)
	}
	j.Close()
	written, err := os.ReadFile(openSegmentPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, old) {
		t.Fatal("a batch Append's segment differs from the per-record encoder's")
	}
	got, dropped := decodeSegment(old)
	if fmt.Sprint(ids(got)) != fmt.Sprint(ids(recs)) || dropped != 0 || got[2].Error != "boom <&>" {
		t.Fatalf("the old segment replays to %v (dropped %d)", ids(got), dropped)
	}
}

// TestReduceFoldsHitRecord: a hit record is its job's submit and end at
// once, under the same duplicate and eviction rules as the pair it replaces.
func TestReduceFoldsHitRecord(t *testing.T) {
	jobs := Reduce([]Record{
		submitRec("job-1"),
		hitRec("job-2"),
		hitRec("job-2"), // a compaction raced by a kill replays records twice
		{Type: RecordEnd, ID: "job-2", State: "failed"}, // a stray end never overrides
		{Type: RecordStart, ID: "job-2"},                // nor does a start un-finish it
		hitRec("job-3"),
		{Type: RecordEvict, ID: "job-3"},
		submitRec("job-4"),
		hitRec("job-4"), // an id is one job: the first record wins
	})
	if len(jobs) != 3 || jobs[0].Submit.ID != "job-1" || jobs[1].Submit.ID != "job-2" || jobs[2].Submit.ID != "job-4" {
		t.Fatalf("folded to %+v, want job-1, job-2, job-4", jobs)
	}
	hit := jobs[1]
	if hit.Submit.Type != RecordSubmit || hit.Submit.Key != "cat+fp" ||
		hit.Submit.Label != "t" || hit.Submit.State != "" || len(hit.Submit.Request) != 0 {
		t.Errorf("hit folded to submit %+v", hit.Submit)
	}
	if !hit.Terminal() || hit.End.Type != RecordEnd || hit.End.State != "done" || !hit.End.CacheHit ||
		!hit.End.Time.Equal(hit.Submit.Time) || hit.End.ID != "job-2" {
		t.Errorf("hit folded to end %+v", hit.End)
	}
	if jobs[0].Terminal() || jobs[2].Terminal() {
		t.Error("a plain submit folded terminal")
	}
}

// TestTornBatchReplaysToWholeFrames truncates a hit + evict commit at every
// byte: replay keeps the whole frames before the cut, drops at most one
// torn frame, and never yields part of a record.
func TestTornBatchReplaysToWholeFrames(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, 0)
	if err := j.Append(submitRec("job-1"), Record{Type: RecordEnd, ID: "job-1", State: "done"}); err != nil {
		t.Fatal(err)
	}
	seg := openSegmentPath(t, dir)
	before, _ := os.Stat(seg)
	hit := hitRec("job-2")
	if err := j.Append(hit, Record{Type: RecordEvict, ID: "job-1"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	hitFrame, err := appendFrame(nil, hit)
	if err != nil {
		t.Fatal(err)
	}
	hitEnd := int(before.Size()) + len(hitFrame)
	for cut := int(before.Size()); cut <= len(whole); cut++ {
		torn := filepath.Join(t.TempDir(), "journal")
		if err := os.MkdirAll(torn, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(torn, filepath.Base(seg)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, got, err := Open(Options{Dir: torn})
		if err != nil {
			t.Fatal(err)
		}
		want, dropped := "[submit:job-1 end:job-1]", 1
		switch {
		case cut == int(before.Size()):
			dropped = 0
		case cut == hitEnd:
			want, dropped = "[submit:job-1 end:job-1 hit:job-2]", 0
		case cut > hitEnd && cut < len(whole):
			want = "[submit:job-1 end:job-1 hit:job-2]"
		case cut == len(whole):
			want, dropped = "[submit:job-1 end:job-1 hit:job-2 evict:job-1]", 0
		}
		if fmt.Sprint(ids(got)) != want || j2.Dropped() != dropped {
			t.Fatalf("cut at %d of %d: replay %v dropped %d, want %s dropped %d",
				cut, len(whole), ids(got), j2.Dropped(), want, dropped)
		}
		j2.Close()
	}
}

// FuzzReplaySegment: no segment panics replay; it yields records only behind
// a valid header, counts at most one poison frame, and when it counts none
// it consumed every byte as whole frames.
func FuzzReplaySegment(f *testing.F) {
	hdr := binary.LittleEndian.AppendUint32([]byte(segMagic), segVersion)
	var frames []byte
	for _, r := range []Record{submitRec("job-1"), {Type: RecordStart, ID: "job-1"}, hitRec("job-2"), {Type: RecordEvict, ID: "job-1"}} {
		frames, _ = appendFrame(frames, r)
	}
	whole := append(bytes.Clone(hdr), frames...)
	f.Add(whole)
	f.Add(whole[:len(whole)-5])
	f.Add(hdr)
	f.Add(whole[:3])
	f.Add(append(bytes.Clone(hdr), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0)) // a 4 GiB length field
	flipped := bytes.Clone(whole)
	flipped[len(hdr)+20] ^= 1
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, dropped := decodeSegment(data)
		if dropped < 0 || dropped > 1 {
			t.Fatalf("decodeSegment: %d records, dropped %d", len(recs), dropped)
		}
		if len(recs) > 0 && (len(data) < len(hdr) || !bytes.Equal(data[:len(hdr)], hdr)) {
			t.Fatal("records out of a segment with no valid header")
		}
		if dropped == 0 && len(data) >= len(hdr) && bytes.Equal(data[:len(hdr)], hdr) {
			// A clean replay consumed every byte as whole CRC-clean frames.
			rest := data[len(hdr):]
			for range recs {
				n := int(binary.LittleEndian.Uint32(rest))
				rest = rest[12+n:]
			}
			if len(rest) != 0 {
				t.Fatalf("clean replay left %d bytes unread", len(rest))
			}
		}
	})
}
