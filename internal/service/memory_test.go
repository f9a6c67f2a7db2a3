package service

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"galactos"
)

// memoryRequest is a cold job at the paper's output size (LMax 10, 10 bins:
// 458 KB encoded) on a small inline catalog, so the result dominates what a
// retained job could pin.
func memoryRequest(seed int64) galactos.Request {
	cfg := galactos.DefaultConfig()
	cfg.RMax, cfg.NBins, cfg.LMax, cfg.Workers = 30, 10, 10, 1
	return galactos.Request{
		Catalog: galactos.GenerateClustered(200, 200, galactos.DefaultClusterParams(), seed),
		Config:  cfg,
		Label:   fmt.Sprintf("memory-seed-%d", seed),
	}
}

// heapAfterGC is the live heap once garbage, and sync.Pool contents with
// their victim caches, are collected.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedJobMemory: a retained done job on an in-memory server costs
// its one encoding, shared with the result store, and nothing else of size —
// not its decoded run (≈ 2x), not an encode buffer's growth slack (1.15x),
// not its request's catalog; it reads ≈ 1.006x. On a disk-backed server it
// holds its key, not bytes: its result is read from the store's file. The
// heap is read with the workers stopped (Shutdown), so no run is live on a
// stack; a first server warms the engine's one-time tables beforehand.
func TestRetainedJobMemory(t *testing.T) {
	warm, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	runCold(t, warm, memoryRequest(0))
	warm.Shutdown(context.Background())

	for _, row := range []struct {
		name  string
		disk  bool
		bound float64 // heap per retained job over its encoding
	}{
		{"in-memory", false, 1.05},
		{"disk-backed", true, 0.02},
	} {
		t.Run(row.name, func(t *testing.T) {
			opts := Options{Workers: 1}
			if row.disk {
				opts.StateDir = t.TempDir()
			}
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			before := heapAfterGC()
			const jobs = 16
			encoded := 0
			for i := 1; i <= jobs; i++ {
				data, _ := fetch(s, runCold(t, s, memoryRequest(int64(i))))
				encoded += len(data)
			}
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			after := heapAfterGC()

			if got := len(s.Jobs()); got != jobs {
				t.Fatalf("%d jobs retained, want %d", got, jobs)
			}
			for _, j := range s.order {
				requireReleased(t, j)
			}
			perJob := (float64(after) - float64(before)) / jobs
			perEncoding := float64(encoded) / jobs
			t.Logf("heap per retained job %.0f B, encoding %.0f B (%.3fx)", perJob, perEncoding, perJob/perEncoding)
			if perJob > row.bound*perEncoding {
				t.Errorf("a retained job pins %.0f B of heap, %.3fx its %.0f B encoding (bound %.2fx)",
					perJob, perJob/perEncoding, perEncoding, row.bound)
			}
		})
	}
}

// requireReleased fails unless terminal job j has dropped its request and
// catalog source.
func requireReleased(t *testing.T, j *job) {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		t.Fatalf("%s is %s, not terminal", j.id, j.state)
	}
	if j.req.Catalog != nil || j.src != nil {
		t.Errorf("%s (%s) still holds its request's catalog", j.id, j.state)
	}
}

// TestTerminalJobsReleaseRequest: the paths to a terminal state that do not
// finish a run release the request too — a job cancelled while queued, and
// a running job cancelled.
func TestTerminalJobsReleaseRequest(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	blockerReq := memoryRequest(1)
	blockerReq.Catalog = galactos.GenerateClustered(30000, 200, galactos.DefaultClusterParams(), 1)
	blocker, err := s.Submit(blockerReq)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Submit(memoryRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); blocker.status().State != StateRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("blocker still %s after 30 s", blocker.status().State)
		}
	}
	s.Cancel(victim.id)
	requireReleased(t, victim)
	s.Cancel(blocker.id)
	for deadline := time.Now().Add(30 * time.Second); !blocker.terminal(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("cancelled blocker still running after 30 s")
		}
	}
	requireReleased(t, blocker)
}

// TestReadBodyPrealloc: a submit body is read into a buffer sized from its
// Content-Length only up to readBodyPrealloc, so a client that declares
// maxRequestBytes and sends two bytes costs the server kilobytes, not
// megabytes; a body longer than that still reads whole.
func TestReadBodyPrealloc(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data, err := readBody(strings.NewReader("{}"), maxRequestBytes)
	runtime.ReadMemStats(&after)
	if err != nil || string(data) != "{}" {
		t.Fatalf("readBody = %q, %v", data, err)
	}
	// A quarter of the declared size leaves room for any other goroutine's
	// allocations and still fails a buffer sized from the header.
	if got := after.TotalAlloc - before.TotalAlloc; got > maxRequestBytes/4 {
		t.Errorf("a 2-byte body declared at %d bytes allocated %d bytes, want at most %d",
			maxRequestBytes, got, maxRequestBytes/4)
	}

	long := strings.Repeat("x", 3*readBodyPrealloc+5)
	if data, err := readBody(strings.NewReader(long), int64(len(long))); err != nil || string(data) != long {
		t.Errorf("a %d-byte body read back %d bytes, %v", len(long), len(data), err)
	}
}
