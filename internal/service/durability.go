package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"galactos"
	"galactos/internal/journal"
)

// This file is the server half of the crash-only durability layer (the
// storage half is internal/journal and store.go). A -state-dir server
// journals every job-lifecycle commit point and, at boot, replays the
// journal into the registry: terminal jobs reappear (bounded by
// RetainJobs), and jobs the previous process died holding are re-enqueued
// under their original ids, resuming sharded work from per-job checkpoint
// directories. See DESIGN.md, "Durability" for the record format and the
// replay state machine.

// openState opens the durability layer under Options.StateDir beside the
// disk-backed result store: the journal (replaying every segment) and the
// recovered job registry. Called from New before any worker starts, so
// recovery observes a quiescent server.
func (s *Server) openState() error {
	sd := s.opts.StateDir
	if err := os.MkdirAll(filepath.Join(sd, "jobs"), 0o755); err != nil {
		return fmt.Errorf("service: creating state dir: %w", err)
	}
	jnl, records, err := journal.Open(journal.Options{
		Dir: filepath.Join(sd, "journal"),
		Log: s.opts.Log,
	})
	if err != nil {
		return fmt.Errorf("service: opening journal: %w", err)
	}
	s.jnl = jnl
	if n := jnl.Dropped(); n > 0 {
		s.logf("journal: dropped %d torn or corrupt frames during replay", n)
	}
	s.recoverJobs(records)
	return nil
}

// recoverJobs folds the replayed records into jobs and re-registers them:
// terminal jobs are restored for status/result queries (newest RetainJobs;
// older ones are dropped exactly as a live server would have evicted
// them), interrupted jobs are re-enqueued in their original submission
// order. The journal is then compacted to the registered live set, and
// checkpoint directories of jobs that are no longer pending are swept.
func (s *Server) recoverJobs(records []journal.Record) {
	// The id counter resumes past every id the journal has ever seen —
	// including evicted ones — so no id is ever reused across restarts.
	var maxID uint64
	for _, r := range records {
		var n uint64
		if _, err := fmt.Sscanf(r.ID, "job-%d", &n); err == nil && n > maxID {
			maxID = n
		}
	}
	s.nextID.Store(maxID)

	jobs := journal.Reduce(records)
	if retain := s.opts.RetainJobs; retain >= 0 {
		terminal := 0
		for _, jr := range jobs {
			if jr.Terminal() {
				terminal++
			}
		}
		if drop := terminal - retain; drop > 0 {
			kept := jobs[:0]
			for _, jr := range jobs {
				if drop > 0 && jr.Terminal() {
					drop--
					continue
				}
				kept = append(kept, jr)
			}
			jobs = kept
		}
	}

	submits := make(map[string]journal.Record, len(jobs))
	pending := make(map[string]bool)
	for _, jr := range jobs {
		submits[jr.Submit.ID] = jr.Submit
		var j *job
		if jr.Terminal() {
			j = restoreTerminal(jr)
			s.restored.Add(1)
		} else {
			j = s.requeueInterrupted(jr)
			if !j.terminal() {
				pending[j.id] = true
			}
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
	}
	if len(s.order) > 0 {
		s.logf("recovery: restored %d terminal jobs, re-enqueued %d interrupted jobs",
			s.restored.Load(), s.requeued.Load())
	}

	// Compact to exactly the registered jobs' records. Jobs that just
	// failed during recovery (unrecoverable request, queue overflow) get
	// their end record here rather than via retire — one write for the
	// whole boot. Only a job with no end record can re-run, so only it keeps
	// its request: a boot reads live jobs' requests, not retained catalogs.
	// A compaction failure is survivable: the un-compacted journal still
	// replays to the same state (Reduce is idempotent).
	live := make([]journal.Record, 0, 2*len(s.order))
	for _, j := range s.order {
		live = append(live, submits[j.id])
		if j.terminal() {
			live[len(live)-1].Request = nil
			live = append(live, endRecord(j))
		}
	}
	if err := s.jnl.Compact(live); err != nil {
		s.logf("journal: compaction failed (continuing on un-compacted segments): %v", err)
	}

	// Sweep checkpoint directories that no pending job owns: completed
	// jobs killed between finish and cleanup, or jobs dropped above.
	jobsRoot := filepath.Join(s.opts.StateDir, "jobs")
	if ents, err := os.ReadDir(jobsRoot); err == nil {
		for _, e := range ents {
			if !pending[e.Name()] {
				os.RemoveAll(filepath.Join(jobsRoot, e.Name()))
			}
		}
	}
}

// restoreTerminal rebuilds a terminal job from its journal records. Like a
// live job on a disk-backed server it holds no result bytes (resultFor).
func restoreTerminal(jr journal.JobRecord) *job {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // terminal on arrival: nothing will ever run under this ctx
	st := State(jr.End.State)
	switch st {
	case StateDone, StateFailed, StateCancelled:
	default: // a record a future version wrote, or hand-edited state
		st = StateFailed
	}
	j := &job{
		id:         jr.Submit.ID,
		label:      jr.Submit.Label,
		key:        jr.Submit.Key,
		ctx:        ctx,
		cancel:     cancel,
		cacheHit:   jr.End.CacheHit,
		queuedAt:   jr.Submit.Time,
		finishedAt: jr.End.Time,
	}
	j.cond = sync.NewCond(&j.mu)
	msg := jr.End.Error
	if msg != "" {
		j.err = errors.New(jr.End.Error)
	} else if jr.End.CacheHit {
		msg = "served from result cache"
	}
	j.state = st
	j.events = []Event{
		{Seq: 0, Type: "state", State: StateQueued, Time: jr.Submit.Time},
		{Seq: 1, Type: "log", Message: "restored from journal after restart", Time: jr.End.Time},
		{Seq: 2, Type: "state", State: st, Message: msg, Time: jr.End.Time},
	}
	return j
}

// requeueInterrupted rebuilds a job the previous process died holding
// (queued or running, no end record) and puts it back on the queue under
// its original id. A job whose request cannot be recovered — submitted
// with an in-process Source, torn beyond decoding, or failing this build's
// request check (naming a backend it no longer has) — is restored failed
// instead: better an honest failure the client can see than a silent
// disappearance.
func (s *Server) requeueInterrupted(jr journal.JobRecord) *job {
	var req galactos.Request
	var src galactos.CatalogSource
	var err error
	if len(jr.Submit.Request) == 0 {
		err = errors.New("request not recoverable from journal (submitted with an in-process source)")
	} else if uerr := json.Unmarshal(jr.Submit.Request, &req); uerr != nil {
		err = fmt.Errorf("decoding journaled request: %w", uerr)
	} else if src, uerr = req.Resolve(); uerr != nil {
		err = fmt.Errorf("re-resolving journaled request: %w", uerr)
	}

	ctx, cancel := context.WithCancel(s.rootCtx)
	j := newJob(jr.Submit.ID, req, src, jr.Submit.Key, ctx, cancel)
	j.queuedAt = jr.Submit.Time
	if err != nil {
		j.finish(StateFailed, fmt.Errorf("crash recovery: %w", err), nil, nil, false)
		s.failed.Add(1)
		return j
	}
	select {
	case s.queue <- j:
		j.appendLog("re-enqueued after crash recovery (journal replay)")
		s.requeued.Add(1)
	default:
		// More interrupted jobs than the queue holds (the depth shrank
		// across the restart): fail the overflow honestly.
		j.finish(StateFailed, errors.New("crash recovery: job queue full, interrupted job not re-enqueued"), nil, nil, false)
		s.failed.Add(1)
	}
	return j
}

// resultFor hands read a done job's encoded result and its size: the bytes
// a job holds on an in-memory server, else the store's file, verified and
// read on the same open fd. It returns the job's state, and false without
// calling read when the store has evicted or poisoned the entry since.
func (s *Server) resultFor(j *job, read func(r io.Reader, size int64)) (State, bool) {
	data, st := j.resultBytes()
	if st != StateDone {
		return st, false
	}
	if data != nil {
		read(bytes.NewReader(data), int64(len(data)))
		return st, true
	}
	f, size, ok := s.store.open(j.key)
	if !ok {
		return st, false
	}
	defer f.Close()
	read(io.NewSectionReader(f, 0, size), size)
	return st, true
}

// identityRecord starts a job's first journal record: who it is and what
// it is keyed by.
func identityRecord(typ string, j *job) journal.Record {
	return journal.Record{Type: typ, ID: j.id, Time: time.Now().UTC(), Key: j.key, Label: j.label}
}

// submitRecord builds the journal record that commits a submission. Only
// requests carrying no in-process Source serialize; for the rest the record
// keeps identity and key but replay cannot re-run them. One that will not
// encode is an error: replay would fail the job it was meant to re-run.
func submitRecord(j *job, req galactos.Request) (journal.Record, error) {
	r := identityRecord(journal.RecordSubmit, j)
	var err error
	if req.Source == nil {
		r.Request, err = json.Marshal(req)
	}
	return r, err
}

// hitRecord is the one record of a job answered from the store: its
// submission and its terminal state together, with no request — nothing
// will ever re-run it.
func hitRecord(j *job) journal.Record {
	r, end := identityRecord(journal.RecordHit, j), endRecord(j)
	r.Time, r.State, r.CacheHit = end.Time, end.State, end.CacheHit
	return r
}

// endRecord snapshots a terminal job as its journal end record.
func endRecord(j *job) journal.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := journal.Record{
		Type:     journal.RecordEnd,
		ID:       j.id,
		Time:     j.finishedAt.UTC(),
		State:    string(j.state),
		CacheHit: j.cacheHit,
	}
	if j.err != nil {
		r.Error = j.err.Error()
	}
	return r
}

// withEvictions is one commit's records: first, then an evict record for
// every job the retention bound pushed out with it.
func withEvictions(first journal.Record, victims []*job) []journal.Record {
	recs := append(make([]journal.Record, 0, 1+len(victims)), first)
	for _, v := range victims {
		recs = append(recs, journal.Record{Type: journal.RecordEvict, ID: v.id, Time: time.Now().UTC()})
	}
	return recs
}

// journalAppend commits records, best-effort: lifecycle appends after the
// submit commit log failures instead of failing the job (the job already
// ran; losing a start/end record only costs a re-run at the next boot).
func (s *Server) journalAppend(recs ...journal.Record) {
	if s.jnl == nil {
		return
	}
	if err := s.jnl.Append(recs...); err != nil {
		s.logf("journal: append %s/%s: %v", recs[0].Type, recs[0].ID, err)
	}
}

func (s *Server) closeJournal() {
	if s.jnl == nil {
		return
	}
	if err := s.jnl.Close(); err != nil {
		s.logf("journal: close: %v", err)
	}
}

// jobDir is the per-job checkpoint directory sharded runs resume from.
func (s *Server) jobDir(id string) string {
	return filepath.Join(s.opts.StateDir, "jobs", id)
}

// removeJobDir sweeps a terminal job's checkpoint directory.
func (s *Server) removeJobDir(id string) {
	if s.opts.StateDir == "" {
		return
	}
	os.RemoveAll(s.jobDir(id))
}
