package service

import (
	"context"
	"sync"
	"time"

	"galactos"
)

// job is one submitted computation. All mutable state is guarded by mu; the
// cond broadcasts whenever the event log grows (which includes every state
// transition), so any number of stream subscribers can follow one job
// without per-subscriber bookkeeping.
type job struct {
	id      string
	label   string
	key     string
	catHash string // catalog half of key, re-verified at run for Path catalogs
	req     galactos.Request
	src     galactos.CatalogSource

	// ctx governs the job's run; cancel works at any point in the
	// lifecycle — a queued job cancels before a worker ever picks it up.
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	cond *sync.Cond

	state      State
	events     []Event
	err        error
	cacheHit   bool
	run        *galactos.RunResult // fresh runs only
	encoded    []byte              // resultio bytes, shared with the result store: never written
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
}

func newJob(id string, req galactos.Request, src galactos.CatalogSource, key string, ctx context.Context, cancel context.CancelFunc) *job {
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

// start moves the job to running; it reports false when the job is already
// terminal (a queued job cancelled before pickup).
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.startedAt = time.Now()
	j.appendStateLocked(StateRunning, "")
	return true
}

// finish moves the job to a terminal state, recording outcome and (for
// done) the run artifacts.
func (j *job) finish(s State, err error, run *galactos.RunResult, encoded []byte, cacheHit bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.finishedAt = time.Now()
	j.err = err
	j.run = run
	j.encoded = encoded
	j.cacheHit = cacheHit
	msg := ""
	if err != nil {
		msg = err.Error()
	} else if cacheHit {
		msg = "served from result cache"
	}
	j.appendStateLocked(s, msg)
}

// terminal reports whether the job has reached a final state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// snapshotEvents returns the events from seq onward, plus the current
// state, without blocking. A from past the end of the log (a resume cursor
// from a stale or malicious client) yields no events, never a panic.
func (j *job) snapshotEvents(from int) ([]Event, State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from > len(j.events) {
		from = len(j.events)
	}
	evs := make([]Event, len(j.events)-from)
	copy(evs, j.events[from:])
	return evs, j.state
}

// waitEvents blocks until events past seq exist or ctx is cancelled (the
// caller must arrange wake on ctx cancellation, e.g. context.AfterFunc(ctx,
// j.wake)), then returns the new events and the current state. Like
// snapshotEvents, an out-of-range from yields no events.
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

// resultBytes returns the encoded result for done jobs.
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
	if j.run != nil {
		st.ElapsedSec = j.run.Elapsed.Seconds()
		st.Units = j.run.Units
	}
	return st
}
