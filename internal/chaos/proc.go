// Process-level chaos: the in-process sweep (suite.go) proves the stack
// absorbs injected faults; this file proves it absorbs *death*. Each case
// launches galactosd as a real subprocess on a throwaway -state-dir,
// SIGKILLs it at a faultpoint-timed moment (mid-job, between jobs, with a
// poisoned cache), restarts it on the same state dir, and credits recovery
// only when the final served result is bitwise-identical to a clean
// in-process run's golden hash — the same verdict rule as every other
// chaos case, extended across a process boundary. Fault plans reach the
// subprocess through GALACTOS_FAULTS/GALACTOS_FAULT_SEED, so the kill
// window is scheduled, not raced.
package chaos

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"galactos"
	"galactos/client"
	"galactos/internal/catalog"
	"galactos/internal/service"
)

// ProcOptions configures the subprocess sweep.
type ProcOptions struct {
	// N sizes the workload catalogs (clamped up to 400); Seed seeds them
	// and the subprocess fault schedules.
	N    int
	Seed int64
	// Scratch hosts catalog files and per-case state dirs; the caller owns
	// its lifetime.
	Scratch string
	// Galactosd is the path to the prebuilt galactosd binary every case
	// launches.
	Galactosd string
	// Logf, when non-nil, narrates daemon lifecycle and case progress.
	Logf func(format string, args ...any)
}

// RunProc executes the subprocess kill-and-restart sweep through RunCases
// and returns one Report per case. The cases arm no in-process points (the
// faults fire in the child, scheduled through its environment), so their
// Stats stay empty: the child's counters die with it — by design.
func RunProc(ctx context.Context, o ProcOptions) ([]Report, error) {
	if o.N < 400 {
		o.N = 400
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if _, err := os.Stat(o.Galactosd); err != nil {
		return nil, fmt.Errorf("chaos: galactosd binary: %w", err)
	}

	// Two catalogs on disk: requests ride the wire as Path + config, so
	// both the subprocess and the clean in-process pass read the same
	// bytes. The sharded backend with >1 shard is deliberate — it is the
	// checkpointing path whose resume the kill cases verify.
	catA := filepath.Join(o.Scratch, "proc-cat-a.glxc")
	catB := filepath.Join(o.Scratch, "proc-cat-b.glxc")
	if err := catalog.SaveBinary(catA, catalog.Clustered(o.N, 240, catalog.DefaultClusterParams(), o.Seed+200)); err != nil {
		return nil, err
	}
	if err := catalog.SaveBinary(catB, catalog.Clustered(o.N, 240, catalog.DefaultClusterParams(), o.Seed+201)); err != nil {
		return nil, err
	}
	cfg := suiteConfig()
	reqFor := func(path string) galactos.Request {
		return galactos.Request{
			Path:    path,
			Config:  cfg,
			Backend: galactos.BackendSpec{Name: "sharded", Shards: 4},
			Label:   "chaos-proc",
		}
	}
	clean := func(path, label string) func(ctx context.Context) (string, error) {
		return func(ctx context.Context) (string, error) {
			run, err := galactos.Run(ctx, reqFor(path))
			if err != nil {
				return "", err
			}
			return hashResult(label, o.N, o.Seed, run.Result), nil
		}
	}
	h := &procHarness{opts: o, logf: logf}

	cases := []Case{
		{
			Name:     "proc-kill-midjob-resume",
			Desc:     "SIGKILL mid-sharded-job; restart re-enqueues it and resumes from shard checkpoints",
			CleanKey: "proc-cat-a",
			CleanRun: clean(catA, "chaos/proc"),
			Run:      func(ctx context.Context) (string, error) { return h.killMidJob(ctx, reqFor(catA)) },
		},
		{
			Name:     "proc-cache-survives-kill",
			Desc:     "SIGKILL after completion; restart serves the resubmission from the disk cache, hit counter advancing",
			CleanKey: "proc-cat-a",
			CleanRun: clean(catA, "chaos/proc"),
			Run:      func(ctx context.Context) (string, error) { return h.cacheSurvives(ctx, reqFor(catA)) },
		},
		{
			Name:     "proc-kill-while-queued",
			Desc:     "SIGKILL with one job running and one queued; restart re-enqueues and completes both",
			CleanKey: "proc-cat-b",
			CleanRun: clean(catB, "chaos/proc-b"),
			Run: func(ctx context.Context) (string, error) {
				return h.killWhileQueued(ctx, reqFor(catA), reqFor(catB))
			},
		},
		{
			Name:     "proc-poisoned-cache-kill",
			Desc:     "SIGKILL, cache entry corrupted on disk; restart recomputes instead of serving poison",
			CleanKey: "proc-cat-a",
			CleanRun: clean(catA, "chaos/proc"),
			Run:      func(ctx context.Context) (string, error) { return h.poisonedCache(ctx, reqFor(catA)) },
		},
	}
	return RunCases(ctx, o.Seed, cases, o.Logf), nil
}

// procHarness carries the per-sweep constants the case bodies share.
type procHarness struct {
	opts ProcOptions
	logf func(format string, args ...any)
}

// daemon is one live galactosd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	cl   *client.Client
	addr string
	done chan error // closed result of cmd.Wait
}

// startDaemon launches galactosd on stateDir with an ephemeral port,
// parses the bound address off its stderr, and waits until /readyz answers.
// faults, when non-empty, becomes the child's GALACTOS_FAULTS plan.
func (h *procHarness) startDaemon(ctx context.Context, stateDir, faults string, extraArgs ...string) (*daemon, error) {
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-workers", "1",
		"-state-dir", stateDir,
	}, extraArgs...)
	cmd := exec.CommandContext(ctx, h.opts.Galactosd, args...)
	// A scrubbed environment: the harness's own process may be running
	// under arbitrary env, but the child's fault plan must be exactly what
	// the case scheduled (or nothing).
	cmd.Env = append(os.Environ(), "GALACTOS_FAULTS=", "GALACTOS_FAULT_SEED=")
	if faults != "" {
		cmd.Env = append(cmd.Env,
			"GALACTOS_FAULTS="+faults,
			fmt.Sprintf("GALACTOS_FAULT_SEED=%d", h.opts.Seed))
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting galactosd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}

	// Forward the child's stderr into the narration and fish the bound
	// address out of its "listening on ADDR" line.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			h.logf("  [galactosd] %s", line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					select {
					case addrCh <- rest[:j]:
					default:
					}
				}
			}
		}
		d.done <- cmd.Wait()
	}()

	select {
	case d.addr = <-addrCh:
	case err := <-d.done:
		return nil, fmt.Errorf("galactosd exited before listening: %v", err)
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("galactosd did not announce its address within 15s")
	case <-ctx.Done():
		cmd.Process.Kill()
		return nil, ctx.Err()
	}
	d.cl = client.New("http://"+d.addr, &http.Client{})

	deadline := time.Now().Add(15 * time.Second)
	for !d.cl.Ready(ctx) {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			return nil, fmt.Errorf("galactosd at %s never became ready", d.addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return d, nil
}

// kill SIGKILLs the daemon — the crash under test — and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// stop ends the daemon gracefully (SIGTERM, bounded wait, then SIGKILL).
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// fetchHash waits for the job and returns its result's golden hash; label
// must match the clean pass's.
func fetchHash(ctx context.Context, cl *client.Client, id, label string, n int, seed int64) (string, error) {
	st, err := cl.Wait(ctx, id)
	if err != nil {
		return "", err
	}
	if st.State != service.StateDone {
		return "", fmt.Errorf("job %s ended %s (%q), want done", id, st.State, st.Error)
	}
	res, err := cl.Result(ctx, id)
	if err != nil {
		return "", err
	}
	return hashResult(label, n, seed, res), nil
}

// killMidJob is the tentpole case: a sharded job is slowed by a scheduled
// checkpoint-save delay after its second shard lands, SIGKILLed inside
// that window, and must complete bitwise-identically after a restart —
// with at least one shard demonstrably resumed from its checkpoint rather
// than recomputed.
func (h *procHarness) killMidJob(ctx context.Context, req galactos.Request) (string, error) {
	stateDir := filepath.Join(h.opts.Scratch, "proc-kill-midjob")
	// The fault plan IS the kill timer: shards 1 and 2 checkpoint
	// normally, then the third save stalls long enough for the harness to
	// observe two durable checkpoints and pull the trigger.
	d, err := h.startDaemon(ctx, stateDir, "shard.checkpoint.save:delay:after=2,count=1,delay=60s")
	if err != nil {
		return "", err
	}
	st, err := d.cl.Submit(ctx, req)
	if err != nil {
		d.kill()
		return "", err
	}

	ckptDir := filepath.Join(stateDir, "jobs", st.ID)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if n := countCheckpoints(ckptDir); n >= 2 {
			h.logf("  %d shard checkpoints on disk; SIGKILL", n)
			break
		}
		if time.Now().After(deadline) {
			d.kill()
			return "", fmt.Errorf("no 2 shard checkpoints under %s within 60s", ckptDir)
		}
		if ctx.Err() != nil {
			d.kill()
			return "", ctx.Err()
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.kill()

	d2, err := h.startDaemon(ctx, stateDir, "")
	if err != nil {
		return "", err
	}
	defer d2.stop()
	stats, err := d2.cl.Stats(ctx)
	if err != nil {
		return "", err
	}
	if stats.RequeuedJobs != 1 {
		return "", fmt.Errorf("restart requeued %d jobs, want 1", stats.RequeuedJobs)
	}
	final, err := d2.cl.Wait(ctx, st.ID)
	if err != nil {
		return "", err
	}
	if final.State != service.StateDone {
		return "", fmt.Errorf("requeued job ended %s (%q), want done", final.State, final.Error)
	}
	resumed := 0
	for _, u := range final.Units {
		if u.Resumed {
			resumed++
		}
	}
	if resumed == 0 {
		return "", fmt.Errorf("no shard was resumed from its checkpoint (all %d recomputed): the kill-recovery path recomputed instead of resuming", len(final.Units))
	}
	h.logf("  %d of %d shards resumed from checkpoints", resumed, len(final.Units))
	res, err := d2.cl.Result(ctx, st.ID)
	if err != nil {
		return "", err
	}
	return hashResult("chaos/proc", h.opts.N, h.opts.Seed, res), nil
}

// cacheSurvives completes a job, SIGKILLs the server, and requires the
// restarted server to answer a resubmission from the persistent cache —
// hit flagged, hit counter advanced, bytes identical.
func (h *procHarness) cacheSurvives(ctx context.Context, req galactos.Request) (string, error) {
	stateDir := filepath.Join(h.opts.Scratch, "proc-cache-survives")
	d, err := h.startDaemon(ctx, stateDir, "")
	if err != nil {
		return "", err
	}
	st, err := d.cl.Submit(ctx, req)
	if err != nil {
		d.kill()
		return "", err
	}
	if _, err := fetchHash(ctx, d.cl, st.ID, "chaos/proc", h.opts.N, h.opts.Seed); err != nil {
		d.kill()
		return "", err
	}
	d.kill()

	d2, err := h.startDaemon(ctx, stateDir, "")
	if err != nil {
		return "", err
	}
	defer d2.stop()
	hit, err := d2.cl.Submit(ctx, req)
	if err != nil {
		return "", err
	}
	final, err := d2.cl.Wait(ctx, hit.ID)
	if err != nil {
		return "", err
	}
	if !final.CacheHit {
		return "", fmt.Errorf("resubmission after kill was recomputed, want a disk-cache hit")
	}
	stats, err := d2.cl.Stats(ctx)
	if err != nil {
		return "", err
	}
	if stats.CacheHits < 1 {
		return "", fmt.Errorf("cache hit counter did not advance after restart (hits=%d)", stats.CacheHits)
	}
	res, err := d2.cl.Result(ctx, hit.ID)
	if err != nil {
		return "", err
	}
	return hashResult("chaos/proc", h.opts.N, h.opts.Seed, res), nil
}

// killWhileQueued kills a one-worker server holding a running job and a
// queued one; the restart must re-enqueue both, and the queued job — which
// never ran a single instruction before the crash — must still produce the
// clean bitwise answer.
func (h *procHarness) killWhileQueued(ctx context.Context, running, queued galactos.Request) (string, error) {
	stateDir := filepath.Join(h.opts.Scratch, "proc-kill-queued")
	d, err := h.startDaemon(ctx, stateDir, "shard.checkpoint.save:delay:count=1,delay=60s")
	if err != nil {
		return "", err
	}
	first, err := d.cl.Submit(ctx, running)
	if err != nil {
		d.kill()
		return "", err
	}
	second, err := d.cl.Submit(ctx, queued)
	if err != nil {
		d.kill()
		return "", err
	}
	// The first job is wedged in its first checkpoint save; the second
	// sits queued behind the single worker. Kill both mid-state.
	d.kill()

	d2, err := h.startDaemon(ctx, stateDir, "")
	if err != nil {
		return "", err
	}
	defer d2.stop()
	stats, err := d2.cl.Stats(ctx)
	if err != nil {
		return "", err
	}
	if stats.RequeuedJobs != 2 {
		return "", fmt.Errorf("restart requeued %d jobs, want 2 (one running, one queued)", stats.RequeuedJobs)
	}
	if _, err := fetchHash(ctx, d2.cl, first.ID, "chaos/proc", h.opts.N, h.opts.Seed); err != nil {
		return "", fmt.Errorf("interrupted running job: %w", err)
	}
	return fetchHash(ctx, d2.cl, second.ID, "chaos/proc-b", h.opts.N, h.opts.Seed)
}

// poisonedCache completes a job, kills the server, corrupts the persisted
// cache entry, and requires the restarted server to detect the poison,
// recompute, and still serve the clean bitwise answer — never the torn
// bytes.
func (h *procHarness) poisonedCache(ctx context.Context, req galactos.Request) (string, error) {
	stateDir := filepath.Join(h.opts.Scratch, "proc-poison-cache")
	d, err := h.startDaemon(ctx, stateDir, "")
	if err != nil {
		return "", err
	}
	st, err := d.cl.Submit(ctx, req)
	if err != nil {
		d.kill()
		return "", err
	}
	if _, err := fetchHash(ctx, d.cl, st.ID, "chaos/proc", h.opts.N, h.opts.Seed); err != nil {
		d.kill()
		return "", err
	}
	d.kill()

	cacheDir := filepath.Join(stateDir, "cache")
	ents, err := os.ReadDir(cacheDir)
	if err != nil {
		return "", err
	}
	poisoned := 0
	for _, e := range ents {
		path := filepath.Join(cacheDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil || len(data) < 16 {
			continue
		}
		data[len(data)/2] ^= 0xFF // flip a byte mid-payload: reads fine, CRC must not
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return "", err
		}
		poisoned++
	}
	if poisoned == 0 {
		return "", fmt.Errorf("no cache entry found under %s to poison", cacheDir)
	}

	d2, err := h.startDaemon(ctx, stateDir, "")
	if err != nil {
		return "", err
	}
	defer d2.stop()
	redo, err := d2.cl.Submit(ctx, req)
	if err != nil {
		return "", err
	}
	final, err := d2.cl.Wait(ctx, redo.ID)
	if err != nil {
		return "", err
	}
	if final.CacheHit {
		return "", fmt.Errorf("poisoned cache entry was served as a hit")
	}
	res, err := d2.cl.Result(ctx, redo.ID)
	if err != nil {
		return "", err
	}
	return hashResult("chaos/proc", h.opts.N, h.opts.Seed, res), nil
}

// countCheckpoints counts durable shard checkpoint files (temp files from
// in-flight atomic writes excluded) in a job's checkpoint directory.
func countCheckpoints(dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".gres") &&
			!bytes.Contains([]byte(name), []byte(".tmp")) {
			n++
		}
	}
	return n
}
