package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

func TestReadSSE(t *testing.T) {
	stream := "event: job\ndata: {\"id\":\"job-000001\"}\n\n" +
		"event: state\ndata: {\"seq\":0,\"type\":\"state\",\"state\":\"queued\"}\n\n" +
		"event: log\ndata: {\"seq\":1,\"type\":\"log\",\"message\":\"shard 1/2 done\"}\n\n"
	type got struct{ event, data string }
	var events []got
	err := readSSE(strings.NewReader(stream), func(event string, data []byte) error {
		events = append(events, got{event, string(data)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("parsed %d events, want 3", len(events))
	}
	if events[0].event != "job" || !strings.Contains(events[0].data, "job-000001") {
		t.Errorf("first event = %+v, want the job header", events[0])
	}
	if events[1].event != "state" || events[2].event != "log" {
		t.Errorf("event types = %s, %s; want state, log", events[1].event, events[2].event)
	}
}

func TestReadSSESpecFieldParsing(t *testing.T) {
	// Per the SSE spec: no space after the field colon is valid, at most
	// one leading space is stripped, and successive data lines of one
	// event join with newlines.
	stream := "event:ping\ndata:line1\ndata: line2\ndata:  spaced\n\n" +
		"data:solo\n\n"
	type got struct{ event, data string }
	var events []got
	err := readSSE(strings.NewReader(stream), func(event string, data []byte) error {
		events = append(events, got{event, string(data)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []got{
		{"ping", "line1\nline2\n spaced"},
		{"", "solo"},
	}
	if len(events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestReadSSEStopsOnHandlerError(t *testing.T) {
	stream := "event: a\ndata: 1\n\nevent: b\ndata: 2\n\n"
	calls := 0
	err := readSSE(strings.NewReader(stream), func(string, []byte) error {
		calls++
		return errTest
	})
	if err != errTest {
		t.Fatalf("got %v, want the handler's error", err)
	}
	if calls != 1 {
		t.Errorf("handler called %d times after erroring, want 1", calls)
	}
}

var errTest = &APIError{StatusCode: 418, Message: "test"}

// FuzzReadSSE: no byte stream panics readSSE; the events it delivers carry
// no more bytes than the stream held (no field sizes a buffer); the events
// do not depend on how the stream is split across reads; and a handler
// error ends the parse at once and comes back unchanged.
func FuzzReadSSE(f *testing.F) {
	for _, s := range []string{
		"event: job\ndata: {\"id\":\"job-000001\"}\n\n" +
			"event: state\ndata: {\"seq\":0,\"type\":\"state\",\"state\":\"queued\"}\n\n",
		"event:ping\ndata:line1\ndata: line2\ndata:  spaced\n\ndata:solo\n\n",
		"event: a\ndata: 1\n\nevent: b\ndata: 2\n\n",
		jobFrame + logFrame(0) + doneFrame(1),
		"data: cut mid-ev", ": comment\r\nid: 3\r\ndata\r\n\r\n", "\n\n\n",
	} {
		f.Add([]byte(s), uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, stopAfter uint8) {
		type event struct{ name, data string }
		collect := func(r io.Reader) ([]event, error) {
			var out []event
			err := readSSE(r, func(name string, d []byte) error {
				out = append(out, event{name, string(d)})
				return nil
			})
			return out, err
		}
		whole, err := collect(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("in-memory stream failed: %v", err)
		}
		size := 0
		for _, e := range whole {
			size += len(e.name) + len(e.data)
		}
		if size > len(data) {
			t.Fatalf("%d event bytes out of a %d-byte stream", size, len(data))
		}
		split, err := collect(iotest.OneByteReader(bytes.NewReader(data)))
		if err != nil || !slices.Equal(split, whole) {
			t.Fatalf("byte-at-a-time reads: %q, %v; whole stream: %q", split, err, whole)
		}
		calls := 0
		err = readSSE(bytes.NewReader(data), func(string, []byte) error {
			if calls++; calls > int(stopAfter) {
				return errTest
			}
			return nil
		})
		if stop := int(stopAfter) + 1; len(whole) >= stop && (err != errTest || calls != stop) {
			t.Fatalf("handler erred on call %d: parse returned %v after %d calls", stop, err, calls)
		}
	})
}

// sse builds one well-formed job event frame with its id: cursor.
func sse(typ string, seq int, payload string) string {
	return fmt.Sprintf("event: %s\nid: %d\ndata: %s\n\n", typ, seq, payload)
}

func logFrame(seq int) string {
	return sse("log", seq, fmt.Sprintf(`{"seq":%d,"type":"log","message":"line %d"}`, seq, seq))
}

func doneFrame(seq int) string {
	return sse("state", seq, fmt.Sprintf(`{"seq":%d,"type":"state","state":"done"}`, seq))
}

const jobFrame = "event: job\ndata: {\"id\":\"job-000001\",\"state\":\"running\"}\n\n"

// TestWatchStreamResilience drives Watch against a scripted server: each
// entry of conns is the raw SSE body one connection attempt receives before
// the server severs it. The client must survive mid-event disconnects
// (resuming via ?from=), deduplicate replay overlap by sequence number, and
// skip malformed frames — delivering every event exactly once in order.
func TestWatchStreamResilience(t *testing.T) {
	cases := []struct {
		name string
		// conns are the scripted SSE bodies, one per connection attempt.
		conns []string
		// wantFrom records the expected from= query of each connection
		// ("" = no from parameter).
		wantFrom []string
		wantSeqs []int
	}{
		{
			name: "mid-event disconnect resumes from last id",
			conns: []string{
				jobFrame + logFrame(0) + "event: log\nid: 1\ndata: {\"seq\":1,", // severed mid-frame
				jobFrame + logFrame(1) + doneFrame(2),
			},
			wantFrom: []string{"", "1"},
			wantSeqs: []int{0, 1, 2},
		},
		{
			name: "replay overlap deduplicated by seq",
			conns: []string{
				jobFrame + logFrame(0) + logFrame(1), // severed between frames
				// This server ignores the resume cursor and replays from 0.
				jobFrame + logFrame(0) + logFrame(1) + logFrame(2) + doneFrame(3),
			},
			wantFrom: []string{"", "2"},
			wantSeqs: []int{0, 1, 2, 3},
		},
		{
			name: "malformed frame skipped",
			conns: []string{
				jobFrame + logFrame(0) +
					"event: log\nid: 1\ndata: {not json at all\n\n" +
					"event: state\ndata: []\n\n" +
					logFrame(1) + doneFrame(2),
			},
			wantFrom: []string{""},
			wantSeqs: []int{0, 1, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu    sync.Mutex
				conn  int
				froms []string
			)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/jobs/job-000001" {
					w.Header().Set("Content-Type", "application/json")
					fmt.Fprint(w, `{"id":"job-000001","state":"done"}`)
					return
				}
				mu.Lock()
				i := conn
				conn++
				froms = append(froms, r.URL.Query().Get("from"))
				mu.Unlock()
				if i >= len(tc.conns) {
					http.Error(w, "script exhausted", http.StatusTeapot)
					return
				}
				w.Header().Set("Content-Type", "text/event-stream")
				fmt.Fprint(w, tc.conns[i])
				// Returning severs the connection (possibly mid-frame).
			}))
			defer srv.Close()

			var seqs []int
			st, err := New(srv.URL, srv.Client()).Watch(context.Background(), "job-000001", func(ev Event) {
				seqs = append(seqs, ev.Seq)
			})
			if err != nil {
				t.Fatalf("Watch: %v", err)
			}
			if st.State != "done" {
				t.Errorf("final state = %s, want done", st.State)
			}
			if len(seqs) != len(tc.wantSeqs) {
				t.Fatalf("delivered seqs %v, want %v", seqs, tc.wantSeqs)
			}
			for i := range seqs {
				if seqs[i] != tc.wantSeqs[i] {
					t.Fatalf("delivered seqs %v, want %v", seqs, tc.wantSeqs)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(froms) != len(tc.wantFrom) {
				t.Fatalf("made %d connections (from= %v), want %d", len(froms), froms, len(tc.wantFrom))
			}
			for i := range froms {
				if froms[i] != tc.wantFrom[i] {
					t.Errorf("connection %d resumed with from=%q, want %q", i, froms[i], tc.wantFrom[i])
				}
			}
		})
	}
}

// TestWatchGivesUpAfterRepeatedFailures: a server that always severs the
// stream without progress exhausts the bounded reconnect budget instead of
// looping forever.
func TestWatchGivesUpAfterRepeatedFailures(t *testing.T) {
	conns := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns++
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, jobFrame) // preamble only, then sever: no progress
	}))
	defer srv.Close()
	_, err := New(srv.URL, srv.Client()).Watch(context.Background(), "job-000001", nil)
	if err == nil || !strings.Contains(err.Error(), "giving up after") {
		t.Fatalf("Watch = %v, want a bounded give-up error", err)
	}
	if conns < 2 {
		t.Errorf("only %d connections; the client should have retried", conns)
	}
}

// TestWatchStopsOnAPIError: a coherent HTTP error (job evicted: 404) is
// fatal — no reconnect storm against a server that answered decisively.
func TestWatchStopsOnAPIError(t *testing.T) {
	conns := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns++
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	}))
	defer srv.Close()
	_, err := New(srv.URL, srv.Client()).Watch(context.Background(), "job-gone", nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("Watch = %v, want a 404 APIError", err)
	}
	if conns != 1 {
		t.Errorf("%d connections for a 404, want 1 (no retries)", conns)
	}
}
