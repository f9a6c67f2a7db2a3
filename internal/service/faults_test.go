package service_test

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"galactos/client"
	"galactos/internal/faultpoint"
	"galactos/internal/service"
)

// TestWorkerSurvivesJobPanic: an injected panic in the job execution path
// becomes a failed job carrying the panic provenance, the stack trace lands
// in the event log, and the worker survives to run the next job — a
// poisoned request cannot wedge the pool.
func TestWorkerSurvivesJobPanic(t *testing.T) {
	faultpoint.Enable(faultpoint.NewPlan(0,
		faultpoint.Point{Name: "service.job.run", Kind: faultpoint.KindPanic, Count: 1}))
	defer faultpoint.Disable()

	_, cl := startServer(t, service.Options{Workers: 1})
	ctx := context.Background()

	st, err := cl.Submit(ctx, testRequest(300, 61))
	if err != nil {
		t.Fatal(err)
	}
	var events []client.Event
	final, err := cl.Watch(ctx, st.ID, func(ev client.Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateFailed {
		t.Fatalf("panicked job state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "worker panic") {
		t.Errorf("failure %q does not carry the panic provenance", final.Error)
	}
	stack := false
	for _, ev := range events {
		if ev.Type == "log" && strings.Contains(ev.Message, "executeJob") {
			stack = true
		}
	}
	if !stack {
		t.Error("no stack-trace event in the failed job's log")
	}

	// The same worker must run the next job to completion.
	st2, err := cl.Submit(ctx, testRequest(300, 62))
	if err != nil {
		t.Fatal(err)
	}
	if final2 := waitForState(t, cl, st2.ID, service.StateDone, 60*time.Second); final2.Error != "" {
		t.Errorf("job after the panic failed: %s", final2.Error)
	}
}

// TestJobTimeoutFailsRun: a job that outlives Options.JobTimeout fails with
// a deadline error (not cancelled — cancellation is reserved for an owner's
// decision), and the worker is reclaimed.
func TestJobTimeoutFailsRun(t *testing.T) {
	_, cl := startServer(t, service.Options{Workers: 1, JobTimeout: 50 * time.Millisecond})
	req := testRequest(30000, 63)
	req.Config.LMax = 8

	st, err := cl.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, cl, st.ID, service.StateFailed, 30*time.Second)
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("failure %q does not mention the deadline", final.Error)
	}
}

// TestRequestTimeoutSecFailsRun: the request's own wire-carried deadline
// caps the run even with no server-wide JobTimeout.
func TestRequestTimeoutSecFailsRun(t *testing.T) {
	_, cl := startServer(t, service.Options{Workers: 1})
	req := testRequest(30000, 64)
	req.Config.LMax = 8
	req.TimeoutSec = 0.05

	st, err := cl.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitForState(t, cl, st.ID, service.StateFailed, 30*time.Second)
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("failure %q does not mention the deadline", final.Error)
	}
}

// TestWatchResumesAcrossInjectedSeverance: end-to-end reconnect — the
// server's SSE write faultpoint severs the watcher's stream mid-job, the
// client resumes from its last event id, and the watcher still observes a
// gapless, duplicate-free event sequence through job completion. The
// severed handler goroutines must wind down (no leaks).
func TestWatchResumesAcrossInjectedSeverance(t *testing.T) {
	faultpoint.Enable(faultpoint.NewPlan(0,
		faultpoint.Point{Name: "service.sse.write", Kind: faultpoint.KindError, After: 2, Every: 3, Count: 2}))
	defer faultpoint.Disable()

	_, cl := startServer(t, service.Options{Workers: 1})
	before := runtime.NumGoroutine()
	ctx := context.Background()

	req := testRequest(4000, 65)
	req.Backend.Name = "sharded"
	req.Backend.Shards = 4 // several per-shard log events to sever between
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int
	final, err := cl.Watch(ctx, st.ID, func(ev client.Event) { seqs = append(seqs, ev.Seq) })
	if err != nil {
		t.Fatalf("Watch across severed streams: %v", err)
	}
	if final.State != service.StateDone {
		t.Fatalf("job state = %s (%s), want done", final.State, final.Error)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("event sequence %v has a gap or duplicate at %d", seqs, i)
		}
	}
	stats := faultpoint.Stats()
	severed := uint64(0)
	for _, fs := range stats {
		if fs.Name == "service.sse.write" {
			severed = fs.Fired
		}
	}
	if severed == 0 {
		t.Fatal("the severance faultpoint never fired; the test did not exercise reconnect")
	}

	// The client keeps one idle keep-alive connection on http.DefaultTransport
	// (its read and write loops plus the server's conn goroutine): close it
	// inside the poll, so what remains above the baseline is a real leak.
	var leaked int
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
		http.DefaultClient.CloseIdleConnections()
		leaked = runtime.NumGoroutine() - before
		if leaked <= 0 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("%d goroutines leaked after severed streams", leaked)
}
