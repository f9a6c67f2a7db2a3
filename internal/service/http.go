package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"galactos"
	"galactos/internal/journal"
)

// Handler returns the galactosd HTTP API:
//
//	POST   /v1/jobs              submit a galactos.Request (JSON body);
//	                             with ?stream, respond as an SSE event
//	                             stream and cancel the job if the client
//	                             disconnects before it finishes
//	GET    /v1/jobs              list job statuses in submission order
//	GET    /v1/jobs/{id}         one job's status
//	GET    /v1/jobs/{id}/events  SSE event stream (full replay, then live;
//	                             a watcher's disconnect does NOT cancel)
//	GET    /v1/jobs/{id}/result  the result in resultio encoding
//	DELETE /v1/jobs/{id}         cancel the job
//	GET    /v1/stats             server-wide counters
//	GET    /healthz              liveness probe: 200 whenever the process
//	                             can answer, draining included
//	GET    /readyz               readiness probe: 503 while draining or
//	                             with a full queue (Retry-After set)
//
// Liveness and readiness are split on purpose: a draining server is alive
// (kill it and in-flight jobs die with it) but not ready (routing new work
// to it guarantees a 503). Orchestrators restart on failed liveness and
// de-route on failed readiness — conflating the two turns every drain into
// a kill.
//
// Ownership is deliberate: only the ?stream submitter owns its job's
// lifetime (disconnect cancels, mirroring a ctrl-C'd local run); event
// watchers observe without owning.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// Retry-After values for backpressure responses, in seconds. A full queue
// clears as soon as a worker dequeues (retry soon); draining never
// un-drains (a longer hint, long enough for an orchestrator to have
// brought the replacement up).
const (
	retryAfterQueueFull = "1"
	retryAfterDraining  = "5"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxRequestBytes bounds a submission body. The journal re-serializes an
// accepted request into one frame, and the densest body the decoder takes
// (a catalog of empty galaxy objects, 3 bytes each on the wire and 41
// re-serialized) grows under 16x on the way, so whatever gets past this
// bound fits journal.MaxFrameBytes and can never poison a replay.
const maxRequestBytes = journal.MaxFrameBytes / 16

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req galactos.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf(
				"request body exceeds %d bytes: save the catalog where the server can read it and submit its path instead of an inline catalog", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		switch {
		case errors.Is(err, ErrBadRequest):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", retryAfterQueueFull)
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", retryAfterDraining)
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	if r.URL.Query().Has("stream") {
		s.streamJob(w, r, j, true)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		s.streamJob(w, r, j, false)
	}
}

// resultBlocks: one copy path, 64 KB at a time, for bytes and files alike.
var resultBlocks = sync.Pool{New: func() any { return new([64 << 10]byte) }}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	state, ok := s.resultFor(j, func(res io.Reader, size int64) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		// A bare Writer keeps the copy on this block, not ReadFrom's own.
		block := resultBlocks.Get().(*[64 << 10]byte)
		io.CopyBuffer(struct{ io.Writer }{w}, res, block[:])
		resultBlocks.Put(block)
	})
	switch {
	case state != StateDone:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", j.id, state))
	case !ok:
		// The job happened, its bytes are gone: resubmitting recomputes.
		writeError(w, http.StatusGone, fmt.Errorf("job %s's result is no longer in the result cache (evicted or corrupt); resubmit to recompute", j.id))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz is pure liveness: if the process can run this handler it
// is alive, and draining does not change that.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 with Retry-After while the server cannot
// accept a submission (draining, or queue full right now).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch err := s.Ready(); {
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfterDraining)
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		w.Header().Set("Retry-After", retryAfterQueueFull)
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// streamJob serves a job as a Server-Sent Events stream: first a "job"
// event carrying the JobStatus (so streaming submitters learn their job
// id), then the event history from the resume point replayed in order, then
// live events until the job terminalizes. When owner is set (streaming
// submit), the client's disconnect cancels the job; watchers only stop
// receiving.
//
// Every job event carries its sequence number as the SSE id: field, so a
// reconnecting watcher resumes where it left off — ?from=N (explicit) or
// the standard Last-Event-ID header (the id of the last event received,
// resuming at N+1) select the replay start. Events are append-only and
// seq-numbered per job, which makes the resumed stream a suffix of the
// stream an uninterrupted watcher sees.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job, owner bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from=%q: want a non-negative integer", v))
			return
		}
		from = n
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			from = n + 1
		}
	}
	// Waiters block on the job's cond; AfterFunc turns the client's
	// disconnect into a broadcast (and, for owners, a job cancellation) so
	// the handler goroutine always unblocks and exits — no leaks.
	var stop func() bool
	if owner {
		stop = context.AfterFunc(r.Context(), func() {
			j.cancel()
			j.wake()
		})
	} else {
		stop = context.AfterFunc(r.Context(), j.wake)
	}
	defer stop()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeSSE(w, "job", -1, j.status())
	fl.Flush()

	next := from
	for r.Context().Err() == nil {
		evs, state := j.waitEvents(r.Context(), next)
		for _, ev := range evs {
			if fpSSEWrite.Inject() != nil {
				// Injected stream severance: drop the connection mid-stream
				// (the write path's real failure mode) and let the client's
				// reconnect logic resume from its last received id.
				return
			}
			writeSSE(w, ev.Type, ev.Seq, ev)
			next = ev.Seq + 1
		}
		fl.Flush()
		if state.Terminal() && len(evs) == 0 {
			return
		}
	}
}

// writeSSE emits one SSE frame; id is the event's replay cursor (negative
// for unnumbered preamble frames like "job").
func writeSSE(w http.ResponseWriter, event string, id int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	if id >= 0 {
		fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", event, id, data)
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
