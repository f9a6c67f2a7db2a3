// Package service implements galactosd: the 3PCF-as-a-service job server.
//
// A server owns a bounded worker pool draining a bounded job queue. Jobs
// arrive as galactos.Request values (the facade's one canonical entrypoint
// doubles as the wire schema), are validated and content-addressed at
// submission — the cache key joins the catalog's content hash with the
// normalized config's Fingerprint — and either complete immediately from
// the LRU result cache or queue for a worker. Workers execute through
// galactos.Run, inheriting the exec layer's cancellation and run record
// unchanged; completed results are stored and served in the
// versioned resultio encoding, so a cache hit is byte-for-byte the cold
// run's payload.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"galactos"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/faultpoint"
	"galactos/internal/journal"
)

// Faultpoints of the job execution path: service.job.run fires as a worker
// picks up a job (an error plan fails the job, a panic plan exercises the
// worker's recover — the job fails, the worker survives); service.sse.write
// fires per outbound SSE event, severing the stream mid-flight so client
// reconnect/resume paths can be driven deterministically.
var (
	fpJobRun   = faultpoint.New("service.job.run")
	fpSSEWrite = faultpoint.New("service.sse.write")
)

// Sentinel errors Submit returns; the HTTP layer maps them onto status
// codes (400 / 429 / 503).
var (
	// ErrBadRequest wraps request validation failures: no or ambiguous
	// catalog input, invalid config, contradictory backend spec, unreadable
	// catalog.
	ErrBadRequest = errors.New("invalid request")
	// ErrQueueFull reports a full job queue; the client should back off and
	// resubmit.
	ErrQueueFull = errors.New("job queue is full")
	// ErrDraining reports a server in graceful shutdown, no longer
	// accepting work.
	ErrDraining = errors.New("server is draining")
)

// Options configures a Server. The zero value is usable: defaults are
// filled by New.
type Options struct {
	// Workers is the number of concurrent jobs (default 2). Each job's
	// engine worker budget comes from its own config; Workers here bounds
	// how many jobs run at once.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker
	// (default 64). Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// CacheEntries bounds the result cache (default 256); negative
	// disables caching.
	CacheEntries int
	// JobTimeout, when positive, caps every job's run wall clock: a job
	// still running when it elapses fails with a deadline error — the
	// worker is reclaimed, never wedged on a pathological job. A request's
	// own TimeoutSec (if tighter) applies on top of this cap.
	JobTimeout time.Duration
	// RetainJobs bounds how many terminal jobs stay registered for
	// status, event, and result queries (default 256). When new jobs
	// terminalize past the bound, the oldest terminal jobs are evicted —
	// their ids answer 404 afterwards — so a long-lived server's memory
	// is bounded by the queue, the pool, and the caches, not by its
	// lifetime job count. Negative retains every job forever. Queued and
	// running jobs are never evicted. With a StateDir, the same bound
	// caps how many terminal jobs a restart replays from the journal.
	RetainJobs int
	// StateDir, when non-empty, makes the server crash-only durable: job
	// lifecycle records go to an append-only fsync-on-commit journal
	// (StateDir/journal), completed results to a disk-backed cache of
	// resultio files (StateDir/cache, still bounded by CacheEntries), and
	// sharded jobs checkpoint under per-job directories
	// (StateDir/jobs/<id>). A server restarted on the same StateDir
	// replays the journal: terminal jobs are restored (up to RetainJobs)
	// and jobs that were queued or running when the process died are
	// re-enqueued under their original ids, resuming from their shard
	// checkpoints instead of recomputing. See DESIGN.md, "Durability".
	StateDir string
	// JournalRotateBytes overrides the journal's segment-rotation
	// threshold (tests; 0 selects the journal package default).
	JournalRotateBytes int64
	// Log, when non-nil, receives server-level progress lines.
	Log func(format string, args ...any)
}

// Server is the galactosd job server. Create with New, expose with
// Handler, stop with Shutdown.
type Server struct {
	opts  Options
	store *resultStore
	jnl   *journal.Journal // nil without a StateDir
	queue chan *job

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job // submission order, for listing
	draining bool

	nextID    atomic.Uint64
	submitted atomic.Uint64
	done      atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	running   atomic.Int64
	restored  atomic.Uint64 // terminal jobs restored from the journal at boot
	requeued  atomic.Uint64 // interrupted jobs re-enqueued from the journal at boot
}

// New starts a server: its workers run until Shutdown. With a StateDir it
// first opens the durability layer and replays the journal — restoring
// terminal jobs and re-enqueueing interrupted ones — before any worker
// starts, so recovery observes a quiescent registry. An error is only
// possible with a StateDir (an unusable state directory); without one New
// cannot fail.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 256
	}
	if opts.RetainJobs == 0 {
		opts.RetainJobs = 256
	}
	cacheDir := "" // a memory-only store
	if opts.StateDir != "" {
		cacheDir = filepath.Join(opts.StateDir, "cache")
	}
	store, err := newResultStore(cacheDir, opts.CacheEntries)
	if err != nil {
		return nil, fmt.Errorf("service: opening result cache: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		store:      store,
		queue:      make(chan *job, opts.QueueDepth),
		rootCtx:    ctx,
		rootCancel: cancel,
		jobs:       make(map[string]*job),
	}
	if opts.StateDir != "" {
		if err := s.openState(); err != nil {
			cancel()
			return nil, err
		}
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log(format, args...)
	}
}

// Submit validates and registers a job. Cache hits complete immediately
// (state done, CacheHit set, see submitHit) without consuming a worker;
// misses queue.
// Errors wrap ErrBadRequest, ErrQueueFull, or ErrDraining.
func (s *Server) Submit(req galactos.Request) (*job, error) {
	src, err := req.Resolve()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	fp, err := req.Config.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	catHash, err := catalog.Hash(src)
	if err != nil {
		return nil, fmt.Errorf("%w: reading catalog: %v", ErrBadRequest, err)
	}
	key := catHash + "+" + fp

	// The lookup comes first: an answer the store already holds needs no
	// queue slot, no request on record and no worker.
	if data, ok := s.store.get(key); ok {
		return s.submitHit(req.Label, key, catHash, data)
	}

	// Everything from the admission checks to the queue send happens under
	// s.mu on purpose: Shutdown sets draining and closes s.queue under the
	// same lock, and only submissions send, so once the checks pass the
	// channel is open and has room — a submission racing a shutdown gets
	// ErrDraining, never a send on a closed channel, and the send cannot
	// block. A rejected job is never journaled or registered, so it can't
	// replay, linger in Jobs() or inflate any counter.
	s.mu.Lock()
	if err := s.readyLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	id := fmt.Sprintf("job-%06d", s.nextID.Add(1))
	ctx, cancel := context.WithCancel(s.rootCtx)
	j := newJob(id, req, src, key, ctx, cancel)
	j.catHash = catHash

	// Journal the submission before the job becomes visible: the commit
	// point of "this job exists" is the fsynced submit record, so every
	// job a client was ever told about is replayable after a kill. A
	// journal that cannot commit fails the submission — accepting work the
	// durability layer cannot remember would silently void the crash-only
	// contract.
	if s.jnl != nil {
		if err := s.jnl.Append(submitRecord(j, req)); err != nil {
			s.mu.Unlock()
			cancel()
			return nil, fmt.Errorf("journaling submission: %w", err)
		}
	}
	s.queue <- j
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
	s.submitted.Add(1)
	s.misses.Add(1)
	s.logf("%s: queued (%s)", id, key[:12])
	return j, nil
}

// submitHit registers a job answered from the store. Nothing will ever run
// it, so its whole registry transition — the job in, already done, and what
// the retention bound pushes out — is one journal commit, made under s.mu
// before the job can be seen: a kill at any byte of it replays to "no such
// job" or to this job done. It keeps no request and shares the store's bytes.
func (s *Server) submitHit(label, key, catHash string, data []byte) (*job, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // terminal on arrival: nothing will ever run under this ctx
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	id := fmt.Sprintf("job-%06d", s.nextID.Add(1))
	j := newJob(id, galactos.Request{Label: label}, nil, key, ctx, cancel)
	j.catHash = catHash
	j.finish(StateDone, nil, nil, data, true)
	victims := s.overRetentionLocked(1)
	if s.jnl != nil {
		if err := s.jnl.Append(withEvictions(hitRecord(j), victims)...); err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("journaling submission: %w", err)
		}
	}
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.removeLocked(victims)
	s.mu.Unlock()
	s.submitted.Add(1)
	s.hits.Add(1)
	s.done.Add(1)
	s.logf("%s: cache hit (%s)", id, key[:12])
	return j, nil
}

// overRetentionLocked returns the oldest terminal jobs Options.RetainJobs
// no longer has room for once incoming more terminal jobs are registered.
// Queued and running jobs are never evicted. Callers hold s.mu.
func (s *Server) overRetentionLocked(incoming int) []*job {
	if s.opts.RetainJobs < 0 {
		return nil
	}
	var terminal []*job
	for _, j := range s.order {
		if j.terminal() {
			terminal = append(terminal, j)
		}
	}
	return terminal[:max(0, len(terminal)+incoming-s.opts.RetainJobs)]
}

// removeLocked drops victims from the registry, releasing their event logs
// and result references; their ids answer 404 from here on. Callers hold
// s.mu.
func (s *Server) removeLocked(victims []*job) {
	if len(victims) == 0 {
		return
	}
	for _, v := range victims {
		delete(s.jobs, v.id)
	}
	keep := s.order[:0]
	for _, j := range s.order {
		if s.jobs[j.id] == j {
			keep = append(keep, j)
		}
	}
	clear(s.order[len(keep):]) // release for GC
	s.order = keep
}

// retire follows every terminal transition of a registered job: it applies
// the retention bound, then journals the job's end record and the evictions
// it caused as one commit (the end first — replay must not resurrect a job
// whose id already answers 404).
func (s *Server) retire(j *job) {
	s.mu.Lock()
	victims := s.overRetentionLocked(0)
	s.removeLocked(victims)
	s.mu.Unlock()
	s.journalAppend(withEvictions(endRecord(j), victims)...)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one dequeued job through the facade's Run, streaming the
// backend's progress lines into the job's event log and caching the
// resultio-encoded result on success.
func (s *Server) runJob(j *job) {
	defer func() {
		s.retire(j)
		s.removeJobDir(j.id)
	}()
	if j.ctx.Err() != nil || !j.start() {
		j.finish(StateCancelled, context.Cause(j.ctx), nil, nil, false)
		s.cancelled.Add(1)
		return
	}
	s.journalAppend(journal.Record{
		Type: journal.RecordStart, ID: j.id, Time: time.Now().UTC(),
	})
	s.running.Add(1)
	defer s.running.Add(-1)

	// A Path catalog was hashed at submission but is re-read from disk
	// now; re-verify (one cheap streaming pass) so a file edited while
	// the job sat queued can never cache its result under the stale
	// content's key and poison later hits.
	if j.req.Path != "" {
		h, err := catalog.Hash(j.src)
		if err == nil && h != j.catHash {
			err = fmt.Errorf("catalog %s changed between submission and run (content hash mismatch)", j.req.Path)
		}
		if err != nil {
			j.finish(StateFailed, err, nil, nil, false)
			s.failed.Add(1)
			s.logf("%s: failed: %v", j.id, err)
			return
		}
	}

	req := j.req
	req.Source = j.src
	req.Catalog = nil
	req.Path = ""
	req.Log = func(format string, args ...any) {
		j.appendLog(fmt.Sprintf(format, args...))
	}

	// Durable servers run sharded jobs in a per-job checkpoint directory
	// with Resume set: a job interrupted by a kill and re-enqueued at the
	// next boot reuses its completed shards instead of recomputing them. A
	// caller-specified CheckpointDir is respected. Only the run's copy
	// changes; the journaled request stays as submitted.
	if b := &req.Backend; s.opts.StateDir != "" && b.Name == "sharded" && b.Shards > 1 && b.CheckpointDir == "" {
		b.CheckpointDir = s.jobDir(j.id)
		b.Resume = true
	}

	// The server-wide job deadline caps the run on a context derived from
	// the job's own (so explicit cancellation still reads as cancelled, and
	// a deadline expiry as failed); the request's tighter TimeoutSec, if
	// any, is applied inside galactos.Run.
	runCtx := j.ctx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(j.ctx, s.opts.JobTimeout)
		defer cancel()
	}
	run, err := s.executeJob(runCtx, j, req)
	switch {
	case err != nil && j.ctx.Err() != nil:
		j.finish(StateCancelled, err, nil, nil, false)
		s.cancelled.Add(1)
		s.logf("%s: cancelled", j.id)
	case err != nil && errors.Is(err, context.DeadlineExceeded):
		err = fmt.Errorf("job deadline exceeded: %w", err)
		j.finish(StateFailed, err, nil, nil, false)
		s.failed.Add(1)
		s.logf("%s: failed: %v", j.id, err)
	case err != nil:
		j.finish(StateFailed, err, nil, nil, false)
		s.failed.Add(1)
		s.logf("%s: failed: %v", j.id, err)
	default:
		var buf bytes.Buffer
		if err := core.WriteResult(&buf, run.Result); err != nil {
			j.finish(StateFailed, fmt.Errorf("encoding result: %w", err), nil, nil, false)
			s.failed.Add(1)
			return
		}
		s.store.put(j.key, buf.Bytes())
		j.finish(StateDone, nil, run, buf.Bytes(), false)
		s.done.Add(1)
		s.logf("%s: done in %s (%d pairs)", j.id, run.Elapsed, run.Result.Pairs)
	}
}

// executeJob runs one job's compute with panic isolation: a panic anywhere
// under the run (engine bug, faultpoint chaos plan) becomes a failed job
// carrying the panic value, with the stack trace preserved as a log event —
// the worker goroutine survives and picks up the next job.
func (s *Server) executeJob(ctx context.Context, j *job, req galactos.Request) (run *galactos.RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			j.appendLog(fmt.Sprintf("worker panic: %v\n%s", p, debug.Stack()))
			run, err = nil, fmt.Errorf("worker panic: %v (stack trace in job events)", p)
		}
	}()
	if err := fpJobRun.Inject(); err != nil {
		return nil, err
	}
	return galactos.Run(ctx, req)
}

// Job returns a registered job by id.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every registered job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	order := make([]*job, len(s.order))
	copy(order, s.order)
	s.mu.Unlock()
	out := make([]JobStatus, len(order))
	for i, j := range order {
		out[i] = j.status()
	}
	return out
}

// Cancel cancels a job by id: queued jobs terminalize immediately, running
// jobs terminalize when the engine observes the cancellation (promptly —
// the exec layer's contract). Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) (*job, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	j.cancel()
	j.mu.Lock()
	terminalized := false
	if j.state == StateQueued {
		j.err = context.Canceled
		j.appendStateLocked(StateCancelled, "cancelled while queued")
		terminalized = true
	}
	j.mu.Unlock()
	if terminalized {
		s.retire(j)
	}
	return j, true
}

// Ready reports whether the server would accept a submission right now:
// nil when ready, ErrDraining during shutdown, ErrQueueFull while the
// queue has no room. Liveness is not its concern — a draining or saturated
// server is still alive, just not ready.
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readyLocked()
}

// readyLocked is Ready, and Submit's admission check for a job that must
// queue. Callers hold s.mu.
func (s *Server) readyLocked() error {
	if s.draining {
		return ErrDraining
	}
	if len(s.queue) >= cap(s.queue) {
		return ErrQueueFull
	}
	return nil
}

// Stats snapshots the server-wide counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	queued := 0
	for _, j := range s.order {
		j.mu.Lock()
		if j.state == StateQueued {
			queued++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	return Stats{
		Workers:      s.opts.Workers,
		QueueDepth:   s.opts.QueueDepth,
		Queued:       queued,
		Running:      int(s.running.Load()),
		Submitted:    s.submitted.Load(),
		Done:         s.done.Load(),
		Failed:       s.failed.Load(),
		Cancelled:    s.cancelled.Load(),
		CacheHits:    s.hits.Load(),
		CacheMisses:  s.misses.Load(),
		CacheEntries: s.store.len(),
		Durable:      s.opts.StateDir != "",
		RestoredJobs: s.restored.Load(),
		RequeuedJobs: s.requeued.Load(),
	}
}

// Shutdown drains gracefully: new submissions fail with ErrDraining,
// queued and running jobs run to completion, workers exit. If ctx expires
// first, in-flight jobs are cancelled and Shutdown returns ctx.Err() once
// the workers have wound down.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		s.closeJournal()
		return nil
	case <-ctx.Done():
		s.rootCancel()
		<-idle
		s.closeJournal()
		return ctx.Err()
	}
}
