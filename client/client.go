// Package client is the Go client for the galactosd job service. It
// speaks the service's HTTP/JSON API: job submission is a galactos.Request
// serialized as-is (the facade's entrypoint is the wire schema), progress
// arrives as Server-Sent Events, and results come back in the versioned
// resultio encoding — decoded here into the same *galactos.Result a direct
// Run produces, byte lineage intact.
//
// A submission's body is json.Marshal's bytes for the request, and the
// server reads an inline catalog in exactly that shape on a fast path that
// converts its numbers without encoding/json's reflection. An inline
// catalog still costs ~90 bytes a galaxy on the wire and its numbers'
// conversion at both ends; a catalog the server can already read is
// cheaper sent by Path.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"galactos"
	"galactos/internal/core"
	"galactos/internal/retry"
	"galactos/internal/service"
)

// Wire types, shared verbatim with the server.
type (
	State     = service.State
	JobStatus = service.JobStatus
	Event     = service.Event
	Stats     = service.Stats
)

// Client talks to one galactosd server.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base (e.g. "http://localhost:8080").
// httpClient may be nil for http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint on backpressure
	// responses (429 queue-full, 503 draining), zero when absent.
	// SubmitRetry honors it as a floor under its own backoff.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("galactosd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// Temporary reports whether resubmitting the same request later can
// succeed: true for the backpressure statuses (429, 503).
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusTooManyRequests ||
		e.StatusCode == http.StatusServiceUnavailable
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func apiError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &e) != nil || e.Error == "" {
		e.Error = strings.TrimSpace(string(data))
	}
	apiErr := &APIError{StatusCode: resp.StatusCode, Message: e.Error}
	// Only the delay-seconds form of Retry-After is parsed; the HTTP-date
	// form (which this server never sends) is ignored rather than guessed.
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// Submit enqueues a request and returns the accepted job's status without
// waiting for it to run. Requests must carry their catalog as Catalog
// (inline) or Path (server-local file); Source does not serialize.
func (c *Client) Submit(ctx context.Context, req galactos.Request) (JobStatus, error) {
	var st JobStatus
	data, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	err = c.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(data), &st)
	return st, err
}

// SubmitRetry submits like Submit, but retries backpressure rejections —
// 429 (queue full) and 503 (draining) — under pol's backoff schedule,
// bounded by pol.MaxAttempts (the zero Policy gives 4 attempts, 10ms
// doubling to 500ms, ±20% deterministic jitter). When the server sends a
// Retry-After hint, the sleep before the next attempt is at least that
// long: the server knows its drain better than any client-side schedule.
// Every other failure — 4xx validation, network errors, ctx cancellation —
// returns immediately; retrying can't fix a bad request, and retrying a
// transport error risks double-submitting a job this method can't see.
func (c *Client) SubmitRetry(ctx context.Context, req galactos.Request, pol retry.Policy) (JobStatus, error) {
	maxAttempts := pol.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 4
	}
	var st JobStatus
	var err error
	for attempt := 1; ; attempt++ {
		st, err = c.Submit(ctx, req)
		var apiErr *APIError
		if err == nil || !errors.As(err, &apiErr) || !apiErr.Temporary() {
			return st, err
		}
		if attempt >= maxAttempts {
			return st, fmt.Errorf("galactosd: giving up after %d submit attempts: %w", attempt, err)
		}
		sleep := pol.Backoff("submit", attempt)
		if apiErr.RetryAfter > sleep {
			sleep = apiErr.RetryAfter
		}
		timer := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			timer.Stop()
			return st, ctx.Err()
		case <-timer.C:
		}
	}
}

// SubmitStream submits a request and follows its event stream to
// completion, invoking onEvent (when non-nil) for each event. The
// submitting connection owns the job: cancelling ctx (or disconnecting)
// cancels the job on the server — which is exactly why this call does NOT
// auto-reconnect (the job is gone the moment the stream drops; resubmission
// is a policy decision the caller owns). Returns the job's final status.
func (c *Client) SubmitStream(ctx context.Context, req galactos.Request, onEvent func(Event)) (JobStatus, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return JobStatus{}, err
	}
	cur := streamCursor{lastSeq: -1}
	if err := c.streamOnce(ctx, http.MethodPost, "/v1/jobs?stream", bytes.NewReader(data), &cur, onEvent); err != nil {
		return cur.st, err
	}
	if cur.id == "" {
		return cur.st, fmt.Errorf("galactosd: stream ended without a job event")
	}
	return c.Status(ctx, cur.id)
}

// reconnectAttempts bounds consecutive failed Watch reconnects (attempts
// that deliver no new event); any delivered event resets the budget, so a
// long job under a flaky network keeps its watcher as long as progress
// trickles through.
const reconnectAttempts = 5

// Watch follows an existing job's event stream to completion, replaying
// history first. Watching does not own the job: cancelling ctx stops
// watching, not the job — which is why Watch may transparently reconnect.
// A dropped stream (server restart of the HTTP layer, injected severance,
// proxy timeout) is resumed from the last received event's sequence number
// via the ?from= cursor, with bounded backoff between attempts; events are
// deduplicated by sequence number, so the caller observes each exactly
// once even when a reconnect replays overlap. Returns the job's final
// status.
func (c *Client) Watch(ctx context.Context, id string, onEvent func(Event)) (JobStatus, error) {
	cur := streamCursor{lastSeq: -1}
	pol := retry.Policy{}
	failures := 0
	for {
		before := cur.lastSeq
		path := "/v1/jobs/" + id + "/events"
		if cur.lastSeq >= 0 {
			path += "?from=" + strconv.Itoa(cur.lastSeq+1)
		}
		err := c.streamOnce(ctx, http.MethodGet, path, nil, &cur, onEvent)
		if cur.terminal {
			return c.Status(ctx, id)
		}
		if cerr := ctx.Err(); cerr != nil {
			return cur.st, cerr
		}
		// The server answered coherently (4xx/5xx): reconnecting cannot
		// help — the job was evicted, or the server is draining.
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			return cur.st, err
		}
		if cur.lastSeq > before {
			failures = 0
		}
		failures++
		if failures >= reconnectAttempts {
			if err == nil {
				err = fmt.Errorf("stream ended before the job terminalized")
			}
			return cur.st, fmt.Errorf("galactosd: giving up after %d reconnects: %w", failures, err)
		}
		timer := time.NewTimer(pol.Backoff("watch "+id, failures))
		select {
		case <-ctx.Done():
			timer.Stop()
			return cur.st, ctx.Err()
		case <-timer.C:
		}
	}
}

// Wait blocks until the job terminalizes and returns its final status.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	return c.Watch(ctx, id, nil)
}

// streamCursor carries resume state across a watch's reconnects.
type streamCursor struct {
	st       JobStatus
	id       string // job id from the stream preamble
	lastSeq  int    // highest event sequence delivered; -1 before the first
	terminal bool   // a terminal state event was delivered
}

// streamOnce runs one SSE connection, dispatching events into the cursor
// until the stream ends (job terminal, connection severed, or ctx done).
// Events at or below the cursor's sequence are duplicates from replay
// overlap and are dropped; frames that fail to parse are skipped, not
// fatal — one corrupt frame must not kill a resumable stream.
func (c *Client) streamOnce(ctx context.Context, method, path string, body io.Reader, cur *streamCursor, onEvent func(Event)) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Accept", "text/event-stream")
	if cur.lastSeq >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(cur.lastSeq))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}

	return readSSE(resp.Body, func(event string, data []byte) error {
		switch event {
		case "job":
			var st JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return nil // malformed preamble frame: skip
			}
			cur.st = st
			cur.id = st.ID
		case "state", "log":
			var ev Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return nil // malformed frame: skip
			}
			if ev.Seq <= cur.lastSeq {
				return nil // replay overlap after a resume: already delivered
			}
			cur.lastSeq = ev.Seq
			if ev.Type == "state" && ev.State.Terminal() {
				cur.terminal = true
			}
			if onEvent != nil {
				onEvent(ev)
			}
		}
		return nil
	})
}

// readSSE parses a Server-Sent Events stream, calling handle for each
// complete event, until the stream ends. Field parsing follows the SSE
// spec: the field value starts after the colon with at most one leading
// space stripped ("data:x" and "data: x" both carry "x"), and successive
// data lines of one event are joined with newlines — so events survive a
// proxy that reflows them.
func readSSE(r io.Reader, handle func(event string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	value := func(line, field string) string {
		return strings.TrimPrefix(strings.TrimPrefix(line, field), " ")
	}
	event, hasData := "", false
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" || hasData {
				if err := handle(event, data); err != nil {
					return err
				}
			}
			event, data, hasData = "", nil, false
		case strings.HasPrefix(line, "event:"):
			event = value(line, "event:")
		case strings.HasPrefix(line, "data:"):
			if hasData {
				data = append(data, '\n')
			}
			data = append(data, value(line, "data:")...)
			hasData = true
		}
	}
	return sc.Err()
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists all job statuses in submission order.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// ResultBytes fetches a done job's result in the raw resultio encoding —
// the bytes the server computed or cached, unverified (a file torn while
// sent arrives short or fails its CRC-64; Result checks it).
func (c *Client) ResultBytes(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	// A stated length, up to a size no result approaches, is read into one
	// exact buffer instead of io.ReadAll's doubling ones.
	if n := resp.ContentLength; n >= 0 && n <= 1<<30 {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	return io.ReadAll(resp.Body)
}

// Result fetches and decodes a done job's result.
func (c *Client) Result(ctx context.Context, id string) (*galactos.Result, error) {
	data, err := c.ResultBytes(ctx, id)
	if err != nil {
		return nil, err
	}
	return core.ReadResult(bytes.NewReader(data))
}

// Cancel cancels a job and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Stats fetches the server-wide counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Ready reports whether the server answers its readiness probe — alive
// AND currently accepting submissions (not draining, queue not full).
func (c *Client) Ready(ctx context.Context) bool {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil) == nil
}
