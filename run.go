package galactos

import (
	"context"
	"fmt"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/exec"
)

// Request is the one canonical description of a 3PCF job: what catalog to
// compute over, with which configuration, on which backend. It is both the
// programmatic entry point (Run) and, serialized to JSON, the wire schema of
// the galactosd job service — the two surfaces are one design, so a request
// that runs locally submits unchanged over HTTP (see the client package).
//
// Exactly one catalog input must be set: Source (programmatic streaming,
// not serializable), Catalog (inline, serialized with the request), or Path
// (a file local to whoever executes the request — the submitting process
// for Run, the server for galactosd).
type Request struct {
	// Source supplies the catalog programmatically (NewMemorySource,
	// NewFileSource, or any streaming implementation). It does not
	// serialize; requests bound for a remote service use Catalog or Path.
	Source CatalogSource `json:"-"`
	// Catalog is an inline catalog carried with the request.
	Catalog *Catalog `json:"catalog,omitempty"`
	// Path names a catalog file (binary, or CSV for .csv paths), resolved
	// where the request executes.
	Path string `json:"path,omitempty"`
	// Config is the engine configuration. It is normalized exactly once,
	// at execution entry: defaulted (zero) tunables and their spelled-out
	// normalized values produce bitwise-identical results and identical
	// Config.Fingerprint cache keys.
	Config Config `json:"config"`
	// Backend selects and parameterizes the execution strategy from
	// flag-shaped values; the zero value is the local backend.
	Backend BackendSpec `json:"backend,omitempty"`
	// Via, when non-nil, is a constructed Backend that overrides the
	// Backend spec — the programmatic escape hatch (scenario harnesses,
	// logging wrappers). It does not serialize.
	Via Backend `json:"-"`
	// TimeoutSec, when positive, bounds the run's wall clock: the run is
	// cancelled with context.DeadlineExceeded once it elapses. It rides the
	// wire, so a remote submission carries its own deadline; the galactosd
	// server additionally caps every job with its Options.JobTimeout.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Label names the run in the perfstat report; empty selects the
	// backend name.
	Label string `json:"label,omitempty"`
	// Log, when non-nil, receives the run's progress lines (per-shard
	// completions, checkpoint resumes). The job service streams these to
	// clients as events; it does not serialize.
	Log func(format string, args ...any) `json:"-"`
}

// ResolveSource returns the catalog source the request designates, rejecting
// requests with zero or several catalog inputs (a request must mean exactly
// one catalog, never a silent precedence pick).
func (r Request) ResolveSource() (CatalogSource, error) {
	n := 0
	if r.Source != nil {
		n++
	}
	if r.Catalog != nil {
		n++
	}
	if r.Path != "" {
		n++
	}
	switch {
	case n == 0:
		return nil, fmt.Errorf("galactos: request has no catalog (set Source, Catalog, or Path)")
	case n > 1:
		return nil, fmt.Errorf("galactos: request has several catalog inputs (set exactly one of Source, Catalog, Path)")
	}
	switch {
	case r.Source != nil:
		return r.Source, nil
	case r.Catalog != nil:
		return catalog.NewMemorySource(r.Catalog), nil
	default:
		return catalog.NewFileSource(r.Path), nil
	}
}

// ResolveBackend returns the backend the request selects: Via when set,
// otherwise the resolved Backend spec.
func (r Request) ResolveBackend() (Backend, error) {
	if r.Via != nil {
		return r.Via, nil
	}
	return r.Backend.Backend()
}

// Run executes a 3PCF request end-to-end and is the one canonical
// entrypoint of the package: every in-tree command, the package's Examples
// and the galactosd job service route through it.
//
// The request's config is normalized exactly once at entry; an invalid
// config is rejected before any catalog IO, and a catalog with a non-finite
// position or weight is rejected, naming the galaxy, in the first pass the
// backend makes over it — before any engine work. Cancelling ctx (deadline,
// SIGINT, client disconnect, ...) stops the run promptly with ctx.Err() and
// leaks no goroutines; a cancelled checkpointed sharded run leaves a
// resumable checkpoint directory. The returned RunResult bundles the merged
// Result, uniform per-unit statistics, and the perfstat report every
// backend feeds identically.
func Run(ctx context.Context, req Request) (*RunResult, error) {
	src, err := req.ResolveSource()
	if err != nil {
		return nil, err
	}
	b, err := req.ResolveBackend()
	if err != nil {
		return nil, err
	}
	if note := req.Backend.DeprecationNote(); note != "" && req.Log != nil {
		req.Log("%s", note)
	}
	if req.TimeoutSec > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutSec*float64(time.Second)))
		defer cancel()
	}
	return exec.Run(ctx, b, &exec.Job{
		Source: src,
		Config: req.Config,
		Label:  req.Label,
		Log:    req.Log,
	})
}
