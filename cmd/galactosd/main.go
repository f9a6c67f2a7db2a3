// Command galactosd serves the anisotropic 3PCF as a job service: clients
// POST galactos.Request jobs as JSON, follow per-unit progress over SSE,
// and fetch results in the versioned resultio encoding. Completed results
// are cached by catalog content hash and normalized config fingerprint, so
// a resubmitted job answers byte-for-byte from the cache.
//
// Usage:
//
//	galactosd [-addr :8080] [-workers 2] [-queue 64] [-cache 256] [-retain 256] [-state-dir DIR] [-quiet]
//
// With -state-dir the server is crash-only durable: job lifecycle goes to
// an fsynced journal, results to a disk-backed cache, and sharded jobs
// checkpoint per job — a galactosd killed outright (SIGKILL, OOM, power)
// and restarted on the same -state-dir restores its terminal jobs,
// re-enqueues interrupted ones, and resumes them from their checkpoints.
//
// SIGINT/SIGTERM starts a graceful shutdown: the listener stops accepting,
// queued and running jobs drain (bounded by -drain), then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"galactos/internal/service"
)

// main is the one exit: run returns every failure. SIGINT/SIGTERM cancel
// run's context, which starts the graceful drain.
func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	cancel()
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "galactosd: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set has already answered with
// its usage text; main exits 2 for it, as flag.ExitOnError would.
var errUsage = errors.New("usage")

// run parses args and serves until ctx is cancelled, then drains. Its log
// lines, the bound address among them, go to logw (stderr from main).
func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("galactosd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 2, "concurrent jobs")
		queue      = fs.Int("queue", 64, "job queue depth")
		cache      = fs.Int("cache", 256, "result cache entries (negative disables)")
		retain     = fs.Int("retain", 256, "terminal jobs retained for status queries (negative retains all)")
		drain      = fs.Duration("drain", 2*time.Minute, "graceful shutdown drain deadline")
		jobTimeout = fs.Duration("job-timeout", 0, "per-job run deadline (0 = unlimited)")
		stateDir   = fs.String("state-dir", "", "durable state directory (journal, result cache, checkpoints); empty = memory only")
		quiet      = fs.Bool("quiet", false, "suppress per-job log lines")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	// service.Options reads these as "use the default"; from the command
	// line they are mistakes, refused before the server listens.
	switch {
	case *workers < 1:
		return fmt.Errorf("-workers %d: want at least 1", *workers)
	case *queue < 1:
		return fmt.Errorf("-queue %d: want at least 1", *queue)
	case *drain <= 0:
		return fmt.Errorf("-drain %s: want a positive deadline", *drain)
	case *jobTimeout < 0:
		return fmt.Errorf("-job-timeout %s: want 0 (unlimited) or more", *jobTimeout)
	}

	logger := log.New(logw, "galactosd: ", log.LstdFlags)
	opts := service.Options{Workers: *workers, QueueDepth: *queue, CacheEntries: *cache,
		RetainJobs: *retain, JobTimeout: *jobTimeout, StateDir: *stateDir}
	if !*quiet {
		opts.Log = func(format string, args ...any) { logger.Printf(format, args...) }
	}
	svc, err := service.New(opts)
	if err != nil {
		return fmt.Errorf("startup: %w", err)
	}

	// Listen explicitly (rather than ListenAndServe) so the bound address —
	// which differs from -addr when it asks for port 0 — is logged before
	// serving begins; the crash sweep (TestCrashRecovery) and scripts parse
	// it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}

	// ReadHeaderTimeout bounds how long a connection may dribble its request
	// head (slowloris hardening) and IdleTimeout reclaims abandoned
	// keep-alive connections. WriteTimeout must stay 0: SSE event streams
	// legitimately live as long as their job runs.
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Printf("listening on %s (%d workers, queue %d, cache %d)", ln.Addr(), *workers, *queue, *cache)

	// A serve failure exits without draining, as a kill would (and as a
	// listen failure does): the server is crash-only, and the next boot on
	// the same -state-dir re-enqueues whatever was running.
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	logger.Printf("shutting down: draining jobs (deadline %s)", *drain)
	deadline, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the service FIRST, with HTTP still serving: the moment Shutdown
	// is entered, new submissions answer 503 and /readyz reports draining
	// (while /healthz stays 200 — the process is alive) — so a load
	// balancer pulls this instance while in-flight jobs finish and their
	// SSE watchers keep receiving. Only then stop the HTTP server. An
	// expired deadline cancels in-flight jobs rather than hanging the
	// process.
	drainErr := svc.Shutdown(deadline)
	if err := httpSrv.Shutdown(deadline); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		return errors.New("drain deadline exceeded, jobs cancelled")
	}
	logger.Printf("drained cleanly")
	return nil
}
