// Package journal is the durable write-ahead log of the galactosd job
// server: an append-only, CRC-framed, fsync-on-commit record of every job's
// lifecycle (submission, start, terminal state, eviction), written so that a
// SIGKILL at any byte offset leaves a replayable log. It is the piece that
// turns the service's in-memory job registry into crash-only state — process
// death becomes just another fault the restart recovers from, in the same
// discipline the shard checkpoints and resultio encodings already follow.
//
// The framing is deliberately boring: each segment file opens with a magic
// and version, then carries length-prefixed JSON records, each guarded by a
// CRC-64 of its payload. A torn tail (the normal shape a kill leaves) or a
// corrupt frame ends that segment's replay — everything before it is kept,
// everything after is classified poison and dropped, never half-trusted.
// Records are idempotent under replay (folded by job id in Reduce), so the
// boot-time compaction that rewrites the live set into a fresh segment is
// crash-safe too: a kill mid-compaction leaves both old and new segments,
// and replaying both yields the same folded state.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"galactos/internal/lanes"
)

// Record types. A job's life is submit -> start -> end; evict marks a
// terminal job dropped from the registry by the retention bound, so replay
// can never resurrect it. A job answered from the result cache never runs,
// so its whole life is one hit record: the submit fields without a request,
// and the end fields.
const (
	RecordSubmit = "submit"
	RecordStart  = "start"
	RecordEnd    = "end"
	RecordEvict  = "evict"
	RecordHit    = "hit"
)

// Record is one journal entry. Only the fields of its Type are set: submit
// records carry the job's identity, its cache key (the catalog content hash
// and the normalized config fingerprint, joined by "+"), and, while the job
// can still run, the serialized request (boot compaction drops it from a
// terminal job's); end records the terminal state. Older segments also
// carry the key's halves as "cat_hash" and "fp": replay ignores them.
type Record struct {
	Type string    `json:"t"`
	ID   string    `json:"id"`
	Time time.Time `json:"time,omitzero"`

	// Submit fields: the cache key, the label, and the request serialized
	// in its wire-schema JSON form.
	Key     string          `json:"key,omitempty"`
	Label   string          `json:"label,omitempty"`
	Request json.RawMessage `json:"req,omitempty"`

	// End fields: the terminal state ("done", "failed", "cancelled"), the
	// failure reason, and whether the result came from the cache.
	State    string `json:"state,omitempty"`
	Error    string `json:"error,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
}

// Segment layout constants.
const (
	segMagic   = "GJL1"
	segVersion = 1
	// MaxFrameBytes bounds a single record's payload: Append refuses a
	// larger one, so on replay a length field beyond it is corruption, not
	// a giant record.
	MaxFrameBytes = 64 << 20
	// DefaultRotateBytes is the segment size past which Append rotates to a
	// fresh segment file.
	DefaultRotateBytes = 4 << 20
)

// Options configures Open. Only Dir is required.
type Options struct {
	// Dir holds the segment files (created if needed).
	Dir string
	// RotateBytes is the segment size threshold for rotation
	// (default DefaultRotateBytes).
	RotateBytes int64
	// Log, when non-nil, receives replay diagnostics (dropped frames,
	// compaction summary).
	Log func(format string, args ...any)
}

// Journal is an open write-ahead log. Append is safe for concurrent use.
type Journal struct {
	opts Options

	mu      sync.Mutex
	f       *os.File // the open segment; nil until the first commit after Open or a rotation
	seq     int      // sequence number of the open segment, or of the last one before it
	size    int64    // bytes written to the open segment
	dropped int      // poison frames dropped during replay
	syncs   int      // fsyncs issued
	closed  bool
}

func (j *Journal) logf(format string, args ...any) {
	if j.opts.Log != nil {
		j.opts.Log(format, args...)
	}
}

func segName(seq int) string { return fmt.Sprintf("seg-%08d.wal", seq) }

// segments lists the existing segment sequence numbers in ascending order.
func segments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range ents {
		var seq int
		if n, _ := fmt.Sscanf(e.Name(), "seg-%d.wal", &seq); n == 1 && e.Name() == segName(seq) {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// Open opens (creating if needed) the journal in opts.Dir and replays every
// segment in order, returning the surviving records oldest-first. Corrupt or
// truncated frames — the tail a kill leaves — end their segment's replay:
// the records before them are returned, the bytes after are dropped and
// counted (Dropped). New appends go to a fresh segment, so a poisoned tail
// is never appended into; it is created by the first commit (Append or
// Compact), whose header and batch share one write and one fsync.
func Open(opts Options) (*Journal, []Record, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("journal: no directory")
	}
	if opts.RotateBytes <= 0 {
		opts.RotateBytes = DefaultRotateBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	j := &Journal{opts: opts}

	seqs, err := segments(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	var records []Record
	for _, seq := range seqs {
		recs, dropped, err := replaySegment(filepath.Join(opts.Dir, segName(seq)))
		if err != nil {
			return nil, nil, fmt.Errorf("journal: segment %d: %w", seq, err)
		}
		if dropped > 0 {
			j.logf("journal: segment %d: dropped %d poison frame(s) at the tail", seq, dropped)
		}
		j.dropped += dropped
		records = append(records, recs...)
	}

	// Appends go to a fresh segment past everything replayed: a torn tail
	// stays frozen as evidence and is swept by the next Compact, and the
	// open segment is always one this process wrote from byte zero.
	if n := len(seqs); n > 0 {
		j.seq = seqs[n-1]
	}
	return j, records, nil
}

// Append commits records as one batch: every frame in one write, then one
// fsync. It returns only after the batch is durable; a crash
// during it leaves a prefix of whole frames and at most one torn one, which
// replay drops. A record that does not fit a frame fails the batch before
// anything is written. Segments past RotateBytes rotate first.
func (j *Journal) Append(recs ...Record) error {
	batch, err := encodeFrames(recs)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if j.f != nil && j.size >= j.opts.RotateBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	return j.commitLocked(batch)
}

// commitLocked writes batch to the open segment and makes it durable. With
// no segment open it creates the next one, its header and the batch going
// out in one write under one fsync: replay treats a segment torn anywhere in
// that write like any torn tail.
func (j *Journal) commitLocked(batch []byte) error {
	if j.f == nil {
		f, err := os.OpenFile(filepath.Join(j.opts.Dir, segName(j.seq+1)),
			os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		j.f, j.seq, j.size = f, j.seq+1, 0
		batch = append(binary.LittleEndian.AppendUint32([]byte(segMagic), segVersion), batch...)
	}
	if _, err := j.f.Write(batch); err != nil {
		return err
	}
	j.size += int64(len(batch))
	// The commit point of everything written to the open segment.
	j.syncs++
	return j.f.Sync()
}

// rotateLocked closes the open segment; the next commit opens its
// successor.
func (j *Journal) rotateLocked() error {
	f := j.f
	j.f = nil
	return f.Close()
}

// Compact rewrites the journal to exactly live: the records land in a fresh
// segment (in order), and every older segment is deleted. Crash-safe by
// idempotence — a kill between the write and the deletes leaves old and new
// segments whose joint replay folds to the same state — and the deletes run
// newest-first so a partially-swept journal still replays the compacted
// segment last.
func (j *Journal) Compact(live []Record) error {
	batch, err := encodeFrames(live)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if j.f != nil {
		_ = j.rotateLocked() // every commit to it was synced: a failed close loses nothing
	}
	if err := j.commitLocked(batch); err != nil {
		return err
	}
	seqs, err := segments(j.opts.Dir)
	if err != nil {
		return err
	}
	removed := 0
	for i := len(seqs) - 1; i >= 0; i-- {
		if seqs[i] >= j.seq {
			continue
		}
		if err := os.Remove(filepath.Join(j.opts.Dir, segName(seqs[i]))); err != nil {
			return err
		}
		removed++
	}
	j.logf("journal: compacted %d segment(s) into %d live record(s)", removed, len(live))
	return nil
}

// Close closes the open segment. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// Dropped reports how many poison frames replay discarded at Open.
func (j *Journal) Dropped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Syncs reports how many fsyncs the journal has issued (tests, benchmarks).
func (j *Journal) Syncs() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncs
}

// Segments reports the current number of segment files (tests and stats).
func (j *Journal) Segments() (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	seqs, err := segments(j.opts.Dir)
	return len(seqs), err
}

// encodeFrames frames recs back to back, in a buffer sized up front: a
// boot compaction's batch carries every runnable job's journaled request.
func encodeFrames(recs []Record) (batch []byte, err error) {
	size := 0
	for _, r := range recs {
		size += 512 + len(r.Request) + len(r.Error)
	}
	batch = make([]byte, 0, size)
	for _, r := range recs {
		if batch, err = appendFrame(batch, r); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// appendFrame appends one framed record to dst: uint32 payload length,
// CRC-64/ECMA of the payload, then the JSON payload.
func appendFrame(dst []byte, r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return dst, err
	}
	if len(payload) > MaxFrameBytes {
		return dst, fmt.Errorf("journal: %s record of job %s is %d bytes, over the %d-byte frame limit",
			r.Type, r.ID, len(payload), MaxFrameBytes)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint64(dst, lanes.CRC64(0, payload))
	return append(dst, payload...), nil
}

// replaySegment reads one segment, returning the records before the first
// poison frame (bad length, CRC mismatch, truncation, or undecodable JSON)
// and how many trailing frames/bytes were dropped (0 or 1 — replay stops at
// the first poison frame; whatever follows it is untrusted by construction).
// A missing or short header poisons the whole segment rather than erroring:
// the journal's contract is that a kill can land anywhere. The segment is
// read whole and framed in place, so a corrupt length field costs a
// comparison, never an allocation.
func replaySegment(path string) ([]Record, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	records, dropped := decodeSegment(data)
	return records, dropped, nil
}

func decodeSegment(data []byte) ([]Record, int) {
	if len(data) < 8 || string(data[0:4]) != segMagic || binary.LittleEndian.Uint32(data[4:8]) != segVersion {
		return nil, 1 // torn before the header completed, or a foreign or future file: poison, not fatal
	}
	var records []Record
	for rest := data[8:]; len(rest) > 0; {
		if len(rest) < 12 {
			return records, 1 // torn mid-frame-header
		}
		n := uint64(binary.LittleEndian.Uint32(rest[0:4]))
		if n == 0 || n > MaxFrameBytes || n > uint64(len(rest)-12) {
			return records, 1 // implausible length (corruption) or torn mid-payload
		}
		payload := rest[12 : 12+n]
		if lanes.CRC64(0, payload) != binary.LittleEndian.Uint64(rest[4:12]) {
			return records, 1 // corrupt payload
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return records, 1 // CRC-clean but undecodable: still poison
		}
		records = append(records, r)
		rest = rest[12+n:]
	}
	return records, 0
}

// JobRecord is the folded per-job view Reduce produces: the submit record,
// whether a start was seen, and the end record if the job terminalized.
type JobRecord struct {
	Submit  Record
	Started bool
	End     *Record
}

// Terminal reports whether the job reached a terminal state before the
// crash (or shutdown) that ended the journal.
func (jr *JobRecord) Terminal() bool { return jr.End != nil }

// Reduce folds a replayed record stream into per-job state, in first-submit
// order. The fold is idempotent — duplicate records (a compaction raced by a
// kill replays some records twice) change nothing: the first submit and the
// first end win, starts are a flag, and a hit record folds as the submit and
// the end it stands for. Evicted jobs are dropped entirely, so a
// job evicted under the retention bound can never resurrect on replay;
// orphan records (start/end/evict with no submit in the replayed window)
// are ignored.
func Reduce(records []Record) []JobRecord {
	byID := make(map[string]*JobRecord)
	var order []string
	evicted := make(map[string]bool)
	for i := range records {
		r := &records[i]
		switch r.Type {
		case RecordSubmit:
			if _, ok := byID[r.ID]; ok {
				continue
			}
			byID[r.ID] = &JobRecord{Submit: *r}
			order = append(order, r.ID)
		case RecordHit:
			if _, ok := byID[r.ID]; ok {
				continue
			}
			sub, end := *r, Record{Type: RecordEnd, ID: r.ID, Time: r.Time, State: r.State, CacheHit: r.CacheHit}
			sub.Type, sub.State, sub.CacheHit = RecordSubmit, "", false
			byID[r.ID] = &JobRecord{Submit: sub, End: &end}
			order = append(order, r.ID)
		case RecordStart:
			if jr, ok := byID[r.ID]; ok {
				jr.Started = true
			}
		case RecordEnd:
			if jr, ok := byID[r.ID]; ok && jr.End == nil {
				end := *r
				jr.End = &end
			}
		case RecordEvict:
			evicted[r.ID] = true
		}
	}
	out := make([]JobRecord, 0, len(order))
	for _, id := range order {
		if evicted[id] {
			continue
		}
		out = append(out, *byID[id])
	}
	return out
}
