package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRun drives the daemon's startup and shutdown through run: a bad flag
// and an unusable -state-dir are refused before serving, and a server on
// an ephemeral port answers /healthz and drains cleanly when its context
// is cancelled.
func TestRun(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		args []string
		err  string // the refusal, or "" for a server that must boot and drain
	}{
		{"unknown-flag", []string{"-no-such-flag"}, errUsage.Error()},
		{"state-dir-is-a-file", []string{"-addr", "127.0.0.1:0", "-state-dir", notDir}, "startup"},
		{"serve-and-drain", []string{"-addr", "127.0.0.1:0", "-quiet"}, ""},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			logr, logw := io.Pipe()
			done := make(chan error, 1)
			go func() {
				err := run(ctx, r.args, logw)
				logw.CloseWithError(io.EOF)
				done <- err
			}()
			lines := bufio.NewScanner(logr)
			if r.err != "" {
				for lines.Scan() {
				}
				if err := <-done; err == nil || !strings.Contains(err.Error(), r.err) {
					t.Fatalf("got error %v, want one containing %q", err, r.err)
				}
				return
			}

			var addr string
			for addr == "" && lines.Scan() {
				if _, rest, ok := strings.Cut(lines.Text(), "listening on "); ok {
					addr, _, _ = strings.Cut(rest, " ")
				}
			}
			if addr == "" {
				t.Fatalf("no listening line; run returned %v", <-done)
			}
			resp, err := (&http.Client{Timeout: 10 * time.Second}).Get("http://" + addr + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz: %s", resp.Status)
			}

			cancel()
			drained := false
			for lines.Scan() {
				drained = drained || strings.Contains(lines.Text(), "drained cleanly")
			}
			if err := <-done; err != nil || !drained {
				t.Fatalf("shutdown: run returned %v, drained-cleanly line %v", err, drained)
			}
			if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
				t.Fatal("server still answering after run returned")
			}
		})
	}
}
