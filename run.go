package galactos

import (
	"context"

	"galactos/internal/exec"
)

// Request is the one canonical description of a 3PCF job: what catalog to
// compute over (exactly one of Source, Catalog, Path), with which Config,
// on which backend (its BackendSpec). It is both the programmatic entry
// point (Run) and, serialized to JSON, the wire schema of the galactosd job
// service — the two surfaces are one design, so a request that runs locally
// submits unchanged over HTTP (see the client package). Request.Resolve is
// its one check, shared by Run and the service's submission.
type Request = exec.Request

// Run executes a 3PCF request end-to-end and is the one canonical
// entrypoint of the package: every in-tree command, the package's Examples
// and the galactosd job service route through it.
//
// The request is checked and its config normalized exactly once at entry;
// an invalid request or config is rejected before any catalog IO, and a
// catalog with a non-finite position or weight is rejected, naming the
// galaxy, in the first pass the backend makes over it — before any engine
// work. Cancelling ctx (deadline, SIGINT, client disconnect, ...) stops the
// run promptly with ctx.Err() and leaks no goroutines; a cancelled
// checkpointed sharded run leaves a resumable checkpoint directory. The
// returned RunResult is the run's one record, the same on every backend:
// the merged Result with its phase timings, per-unit statistics, the
// backend and the elapsed wall clock.
func Run(ctx context.Context, req Request) (*RunResult, error) {
	return exec.Run(ctx, req)
}
