package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"galactos"
	"galactos/client"
	"galactos/internal/scenario"
	"galactos/internal/service"
)

// daemonEnv, set to 1 in a child's environment, makes this test binary run
// galactosd's main (run(ctx, os.Args[1:], os.Stderr)) instead of its tests.
// The crash sweep's daemon is therefore the code under test, built as the
// test was (-race included), with no separate build of the command.
const daemonEnv = "GALACTOSD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// faultSeed seeds the children's fault schedules.
const faultSeed = 1

// TestCrashRecovery is the crash sweep. galactosd runs as a real process on
// a throwaway -state-dir, is SIGKILLed at a moment its fault plan
// schedules, and is restarted on the same state dir. A case passes only when
// the restarted daemon serves results bitwise-identical to a clean
// in-process run of the same request. Fault plans reach the child through
// GALACTOS_FAULTS and GALACTOS_FAULT_SEED, so the kill window is scheduled,
// not raced.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep (daemons started, killed and restarted)")
	}
	// Requests ride the wire as Path + config, so the daemon and the clean
	// in-process pass read the same bytes. The sharded backend with more
	// than one shard is the checkpointing path whose resume the kill cases
	// verify.
	const n = 400
	dir := t.TempDir()
	var s crashSweep
	for i, w := range []*workload{&s.a, &s.b} {
		path := filepath.Join(dir, fmt.Sprintf("cat-%d.glxc", i))
		if err := galactos.SaveCatalog(path, galactos.GenerateClustered(n, 240, galactos.DefaultClusterParams(), int64(200+i))); err != nil {
			t.Fatal(err)
		}
		cfg := galactos.DefaultConfig()
		cfg.RMax, cfg.NBins, cfg.LMax = 40, 4, 3
		w.req = galactos.Request{Path: path, Config: cfg, Label: "crash-sweep",
			Backend: galactos.BackendSpec{Name: "sharded", Shards: 4}}
		run, err := galactos.Run(t.Context(), w.req)
		if err != nil {
			t.Fatal(err)
		}
		w.hash = hashOf(run.Result)
	}
	rows := []struct {
		name string
		run  func(t *testing.T, stateDir string)
	}{
		{"proc-kill-midjob-resume", s.killMidJob},
		{"proc-cache-survives-kill", s.cacheSurvives},
		{"proc-kill-while-queued", s.killWhileQueued},
		{"proc-poisoned-cache-kill", s.poisonedCache},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { r.run(t, t.TempDir()) })
	}
}

// workload is one request of the sweep and its clean in-process hash.
type workload struct {
	req  galactos.Request
	hash string
}

// crashSweep holds the sweep's two workloads; its methods are the cases.
type crashSweep struct{ a, b workload }

// hashOf is the scenario registry's canonical bitwise hash of a result.
func hashOf(res *galactos.Result) string {
	return (&scenario.Outcome{Scenario: "crash-sweep", Result: res}).GoldenHash()
}

// killMidJob slows a sharded job with a scheduled checkpoint-save delay
// after its second shard lands, SIGKILLs the daemon inside that window, and
// requires the restart to re-enqueue the job and finish it bitwise, with at
// least one shard resumed from its checkpoint rather than recomputed.
func (s *crashSweep) killMidJob(t *testing.T, stateDir string) {
	d := startDaemon(t, stateDir, "shard.checkpoint.save:delay:after=2,count=1,delay=60s")
	st := d.submit(t, s.a.req)
	ckptDir := filepath.Join(stateDir, "jobs", st.ID)
	deadline := time.Now().Add(60 * time.Second)
	for countCheckpoints(ckptDir) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no 2 shard checkpoints under %s within 60s", ckptDir)
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.kill()

	d = startDaemon(t, stateDir, "")
	defer d.stop(t)
	if got := d.stats(t).RequeuedJobs; got != 1 {
		t.Fatalf("restart requeued %d jobs, want 1", got)
	}
	final := d.done(t, st.ID)
	resumed := 0
	for _, u := range final.Units {
		if u.Resumed {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatalf("none of %d shards resumed from its checkpoint: the restart recomputed instead of resuming", len(final.Units))
	}
	t.Logf("%d of %d shards resumed from checkpoints", resumed, len(final.Units))
	d.sameAs(t, st.ID, s.a.hash)
}

// cacheSurvives completes a job, SIGKILLs the daemon, and requires the
// restart to answer a resubmission from the persistent cache: hit flagged,
// hit counter advanced, result identical.
func (s *crashSweep) cacheSurvives(t *testing.T, stateDir string) {
	d := startDaemon(t, stateDir, "")
	d.done(t, d.submit(t, s.a.req).ID)
	d.kill()

	d = startDaemon(t, stateDir, "")
	defer d.stop(t)
	hit := d.done(t, d.submit(t, s.a.req).ID)
	if !hit.CacheHit {
		t.Fatal("resubmission after the kill was recomputed, want a disk-cache hit")
	}
	if got := d.stats(t).CacheHits; got < 1 {
		t.Fatalf("cache hit counter did not advance after the restart (hits=%d)", got)
	}
	d.sameAs(t, hit.ID, s.a.hash)
}

// killWhileQueued kills a one-worker daemon holding a running job and a
// queued one. The restart must re-enqueue both, and the queued job, which
// never ran before the crash, must still give the clean answer.
func (s *crashSweep) killWhileQueued(t *testing.T, stateDir string) {
	d := startDaemon(t, stateDir, "shard.checkpoint.save:delay:count=1,delay=60s")
	first := d.submit(t, s.a.req)
	second := d.submit(t, s.b.req)
	// The first job is wedged in its first checkpoint save; the second sits
	// queued behind the single worker.
	d.kill()

	d = startDaemon(t, stateDir, "")
	defer d.stop(t)
	if got := d.stats(t).RequeuedJobs; got != 2 {
		t.Fatalf("restart requeued %d jobs, want 2 (one running, one queued)", got)
	}
	d.sameAs(t, first.ID, s.a.hash)
	d.sameAs(t, second.ID, s.b.hash)
}

// poisonedCache completes a job, kills the daemon, flips a byte in the
// middle of every persisted cache entry, and requires the restart to detect
// the poison and recompute: never a hit on the torn bytes.
func (s *crashSweep) poisonedCache(t *testing.T, stateDir string) {
	d := startDaemon(t, stateDir, "")
	d.done(t, d.submit(t, s.a.req).ID)
	d.kill()

	cacheDir := filepath.Join(stateDir, "cache")
	ents, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := 0
	for _, e := range ents {
		path := filepath.Join(cacheDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil || len(data) < 16 {
			continue
		}
		data[len(data)/2] ^= 0xFF // the file still reads; its CRC must not
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		poisoned++
	}
	if poisoned == 0 {
		t.Fatalf("no cache entry under %s to poison", cacheDir)
	}

	d = startDaemon(t, stateDir, "")
	defer d.stop(t)
	redo := d.done(t, d.submit(t, s.a.req).ID)
	if redo.CacheHit {
		t.Fatal("the poisoned cache entry was served as a hit")
	}
	d.sameAs(t, redo.ID, s.a.hash)
}

// daemon is one live galactosd child process.
type daemon struct {
	cmd    *exec.Cmd
	cl     *client.Client
	exited chan struct{} // closed once cmd.Wait has returned into err
	err    error
}

// startDaemon launches galactosd (this binary, see TestMain) on stateDir at
// an ephemeral port with one worker, reads the bound address off its
// stderr, and waits until /readyz answers. faults, when non-empty, is the
// child's GALACTOS_FAULTS plan. The child is killed when t ends, if it is
// still running.
func startDaemon(t *testing.T, stateDir, faults string) *daemon {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, "-addr", "127.0.0.1:0", "-workers", "1", "-state-dir", stateDir)
	// The child's plan must be exactly the one the case scheduled, whatever
	// this process's environment holds.
	cmd.Env = append(os.Environ(), daemonEnv+"=1",
		"GALACTOS_FAULTS="+faults, fmt.Sprintf("GALACTOS_FAULT_SEED=%d", faultSeed))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	t.Cleanup(d.kill)

	// Forward the child's stderr to the test log and fish the bound address
	// out of its "listening on ADDR" line.
	addrc := make(chan string, 1)
	go func() {
		lines := bufio.NewScanner(stderr)
		for lines.Scan() {
			t.Logf("[galactosd] %s", lines.Text())
			if _, rest, ok := strings.Cut(lines.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case addr := <-addrc:
		d.cl = client.New("http://"+addr, nil)
	case <-d.exited:
		t.Fatalf("galactosd exited before listening: %v", d.err)
	case <-time.After(30 * time.Second):
		t.Fatal("galactosd did not announce its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for !d.cl.Ready(t.Context()) {
		if time.Now().After(deadline) {
			t.Fatal("galactosd never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
	return d
}

// kill SIGKILLs the daemon, the crash under test, and reaps it. Killing a
// daemon that has already exited does nothing.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stop ends the daemon as SIGTERM does, draining, and fails t unless it
// exits cleanly (under -race, a data race in the child fails its exit).
func (d *daemon) stop(t *testing.T) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		if d.err != nil {
			t.Errorf("galactosd exited with %v after SIGTERM", d.err)
		}
	case <-time.After(30 * time.Second):
		t.Error("galactosd did not drain within 30s of SIGTERM")
		d.kill()
	}
}

func (d *daemon) submit(t *testing.T, req galactos.Request) client.JobStatus {
	t.Helper()
	st, err := d.cl.Submit(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func (d *daemon) stats(t *testing.T) client.Stats {
	t.Helper()
	st, err := d.cl.Stats(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// done waits for the job and fails t unless it ended done.
func (d *daemon) done(t *testing.T, id string) client.JobStatus {
	t.Helper()
	st, err := d.cl.Wait(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job %s ended %s (%q), want done", id, st.State, st.Error)
	}
	return st
}

// sameAs waits for the job and fails t unless its served result hashes to
// want, bit for bit.
func (d *daemon) sameAs(t *testing.T, id, want string) {
	t.Helper()
	d.done(t, id)
	res, err := d.cl.Result(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashOf(res); got != want {
		t.Fatalf("job %s served hash %s, clean run %s", id, got, want)
	}
}

// countCheckpoints counts the durable shard checkpoints in a job's
// checkpoint directory, leaving out the temp files of in-flight writes.
func countCheckpoints(dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".gres") && !strings.Contains(name, ".tmp") {
			n++
		}
	}
	return n
}
