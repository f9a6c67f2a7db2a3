package service

import (
	"context"
	"strings"
	"sync"
	"time"

	"galactos"
	"galactos/internal/catalog"
	"galactos/internal/exec"
)

// job is one submitted computation, identified by its cache key (catalog
// hash "+" config Fingerprint). All mutable state is guarded by mu; the
// cond broadcasts whenever the event log grows (which includes every state
// transition), so any number of stream subscribers can follow one job
// without per-subscriber bookkeeping.
type job struct {
	id    string
	label string
	key   string

	// req and src are what a worker runs; they are released once the job is
	// terminal, so a retained job holds no catalog.
	req galactos.Request
	src galactos.CatalogSource

	// ctx governs the job's run; cancel works at any point in the
	// lifecycle — a queued job cancels before a worker ever picks it up.
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	cond *sync.Cond

	state    State
	events   []Event
	err      error
	cacheHit bool
	// A fresh run leaves its status fields, never its decoded result.
	elapsed    time.Duration
	units      []exec.UnitStats
	encoded    []byte // shared with an in-memory store, never written; nil where a file serves it
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
}

// newJob builds a queued job. A catalog the server did not decode itself (a
// Path file, an in-process Source) can change after it was hashed, so its
// run reads it pinned to the catalog half of key: a run that read another
// catalog fails with catalog.ErrChanged instead of caching under this key.
func newJob(id string, req galactos.Request, src galactos.CatalogSource, key string, ctx context.Context, cancel context.CancelFunc) *job {
	if src != nil && req.Catalog == nil {
		catHash, _, _ := strings.Cut(key, "+")
		src = catalog.Pin(src, catHash)
	}
	j := &job{
		id:       id,
		label:    req.Label,
		key:      key,
		req:      req,
		src:      src,
		ctx:      ctx,
		cancel:   cancel,
		queuedAt: time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	j.appendStateLocked(StateQueued, "")
	return j
}

// wake broadcasts the job's condition — stream subscribers use it (via
// context.AfterFunc) to notice their own context's cancellation while
// blocked waiting for the next event.
func (j *job) wake() {
	j.mu.Lock()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// appendStateLocked records a state transition event. Callers hold mu.
func (j *job) appendStateLocked(s State, msg string) {
	j.state = s
	j.events = append(j.events, Event{
		Seq:     len(j.events),
		Type:    "state",
		State:   s,
		Message: msg,
		Time:    time.Now(),
	})
	j.cond.Broadcast()
}

// appendLog records a backend progress line.
func (j *job) appendLog(msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.events = append(j.events, Event{
		Seq:     len(j.events),
		Type:    "log",
		Message: msg,
		Time:    time.Now(),
	})
	j.cond.Broadcast()
}

// start moves the job to running and hands the worker its request and
// catalog source; it reports false when the job is cancelled or already
// terminal (a queued job cancelled before pickup).
func (j *job) start() (galactos.Request, galactos.CatalogSource, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ctx.Err() != nil || j.state.Terminal() {
		return galactos.Request{}, nil, false
	}
	j.startedAt = time.Now()
	j.appendStateLocked(StateRunning, "")
	return j.req, j.src, true
}

// finish moves the job to a terminal state, recording outcome and (for
// done) the run's status fields and encoded bytes.
func (j *job) finish(s State, err error, run *galactos.RunResult, encoded []byte, cacheHit bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.finishedAt = time.Now()
	j.err = err
	if run != nil {
		j.elapsed, j.units = run.Elapsed, run.Units
	}
	j.encoded = encoded
	j.cacheHit = cacheHit
	msg := ""
	if err != nil {
		msg = err.Error()
	} else if cacheHit {
		msg = "served from result cache"
	}
	j.terminateLocked(s, msg)
}

// terminateLocked records the terminal transition to s and releases the
// request and catalog source, which nothing reads after it. Callers hold mu.
func (j *job) terminateLocked(s State, msg string) {
	j.req, j.src = galactos.Request{}, nil
	j.appendStateLocked(s, msg)
}

// terminal reports whether the job has reached a final state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// waitEvents blocks until events past seq exist or ctx is cancelled (the
// caller must arrange wake on ctx cancellation, e.g. context.AfterFunc(ctx,
// j.wake)), then returns the new events and the current state. A from past
// the end of the log (a resume cursor from a stale or malicious client)
// yields no events, never a panic.
func (j *job) waitEvents(ctx context.Context, from int) ([]Event, State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.events) <= from && !j.state.Terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	if from > len(j.events) {
		from = len(j.events)
	}
	evs := make([]Event, len(j.events)-from)
	copy(evs, j.events[from:])
	return evs, j.state
}

// resultBytes returns the bytes a job holds (nil where a file serves them).
func (j *job) resultBytes() ([]byte, State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.encoded, j.state
}

// status snapshots the job as its wire form.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		State:      j.state,
		Label:      j.label,
		Key:        j.key,
		CacheHit:   j.cacheHit,
		QueuedAt:   j.queuedAt,
		StartedAt:  j.startedAt,
		FinishedAt: j.finishedAt,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	st.ElapsedSec = j.elapsed.Seconds()
	st.Units = j.units
	return st
}
