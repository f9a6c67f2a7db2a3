// The case catalog: suite assembles the full-stack chaos sweep. Fault kinds
// are chosen for what each seam can absorb bitwise — errors where a retry or
// degradation layer recovers (catalog IO, spill IO, checkpoint save/load),
// delays where an error is fatal by design (core.worker.block fails the run
// to preserve worker isolation; a delay perturbs scheduling without touching
// the result), and a panic at the service worker, whose recovery contract is
// "the job fails, the pool survives" rather than an identical result — so
// that case proves the NEXT job's result is bitwise-identical.

package chaos

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"galactos"
	"galactos/client"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/exec"
	"galactos/internal/faultpoint"
	"galactos/internal/scenario"
	"galactos/internal/service"
)

// suiteConfig is the shared engine configuration of the non-scenario cases:
// small radii, Workers at the GOMAXPROCS default (outcomes are bitwise
// reproducible at any worker count).
func suiteConfig() core.Config {
	return core.Config{
		RMax: 40, NBins: 4, LMax: 3,
		LOS: core.LOSPlaneParallel, SelfCount: true,
	}
}

// hashResult folds a bare engine result into the scenario registry's
// canonical bitwise hash (one serialization for the whole repo).
func hashResult(label string, n int, seed int64, res *core.Result) string {
	return (&scenario.Outcome{Scenario: label, N: n, Seed: seed, Result: res}).GoldenHash()
}

// suite assembles the full chaos sweep: every scenario-registry entry on
// both execution backends, the streaming shard pipeline under transient IO
// faults, checkpoint-resume with a poisoned checkpoint load, and the
// galactosd service under a worker panic and severed SSE streams. scratch
// hosts the sweep's catalog files and checkpoint directories (the caller
// owns its lifetime). n sizes the workload catalogs; seed seeds them.
func suite(n int, seed int64, scratch string) ([]chaosCase, error) {
	var cases []chaosCase

	// --- scenario registry × both backends, invariants checked -------------
	//
	// Each (scenario, backend) pair pins its own clean hash — backends merge
	// partial results in different orders, so equivalence across backends is
	// to rounding, while recovery within a backend must be exact. The
	// sharded plan adds transient checkpoint-save errors for the retry layer
	// to absorb; every backend gets worker-block delays.
	workerDelay := func(every, count uint64) faultpoint.Point {
		return faultpoint.Point{
			Name: "core.worker.block", Kind: faultpoint.KindDelay,
			Every: every, Count: count, Delay: time.Millisecond,
		}
	}
	for _, s := range scenario.All() {
		backends := []struct {
			tag    string
			spec   exec.Spec
			points []faultpoint.Point
		}{
			{"local", exec.Spec{Name: "local"},
				[]faultpoint.Point{workerDelay(3, 6)}},
			{"sharded", exec.Spec{Name: "sharded", Shards: 3,
				CheckpointDir: filepath.Join(scratch, "scen", s.Name)},
				[]faultpoint.Point{
					workerDelay(5, 4),
					{Name: "shard.checkpoint.save", Kind: faultpoint.KindError, Count: 2},
				}},
		}
		for _, be := range backends {
			spec := be.spec
			cases = append(cases, chaosCase{
				name:   s.Name + "/" + be.tag,
				points: be.points,
				run: func(ctx context.Context) (string, error) {
					o, err := s.RunChecked(ctx, spec, n, seed)
					if err != nil {
						return "", err
					}
					return o.GoldenHash(), nil
				},
			})
		}
	}

	// --- streaming shard pipeline under transient IO faults ----------------
	//
	// The catalog streams from disk, so the catalog-source, spill, and
	// checkpoint-save faultpoints all sit on the hot path; every injected
	// error must be absorbed by the retry layer or a pass restart.
	streamDir := filepath.Join(scratch, "stream")
	if err := os.MkdirAll(streamDir, 0o755); err != nil {
		return nil, err
	}
	streamCat := catalog.Clustered(n, 240, catalog.DefaultClusterParams(), seed+100)
	streamPath := filepath.Join(streamDir, "cat.glxc")
	if err := catalog.SaveBinary(streamPath, streamCat); err != nil {
		return nil, err
	}
	streamPass := 0
	streamRun := func(ctx context.Context) (string, error) {
		streamPass++
		run, err := exec.Run(ctx, exec.Request{
			Path: streamPath, Config: suiteConfig(), Label: "chaos-stream",
			Backend: exec.Spec{Name: "sharded", Shards: 3,
				CheckpointDir: filepath.Join(streamDir, fmt.Sprintf("ckpt-%d", streamPass))},
		})
		if err != nil {
			return "", err
		}
		return hashResult("chaos/stream", n, seed, run.Result), nil
	}
	cases = append(cases, chaosCase{
		name: "stream-transients",
		points: []faultpoint.Point{
			{Name: "catalog.source.open", Kind: faultpoint.KindError, Count: 1},
			{Name: "catalog.source.read", Kind: faultpoint.KindError, After: 1, Count: 1},
			{Name: "shard.spill.write", Kind: faultpoint.KindError, After: 50, Count: 1},
			{Name: "shard.spill.read", Kind: faultpoint.KindError, Count: 1},
			{Name: "shard.checkpoint.save", Kind: faultpoint.KindError, Count: 1},
		},
		run: streamRun,
	})

	// --- checkpoint-resume with a poisoned checkpoint load -----------------
	//
	// The clean pass computes and keeps per-shard checkpoints; the faulted
	// pass reruns into them, resuming with the first checkpoint load
	// injected to fail, which must degrade to recomputing that shard — same
	// answer, one checkpoint's worth of work repaid.
	resumeCat := catalog.Clustered(n, 240, catalog.DefaultClusterParams(), seed+101)
	resumeCkpt := filepath.Join(scratch, "resume", "ckpt")
	resumeRun := func(keep bool) func(ctx context.Context) (string, error) {
		return func(ctx context.Context) (string, error) {
			run, err := exec.Run(ctx, exec.Request{
				Catalog: resumeCat, Config: suiteConfig(), Label: "chaos-resume",
				Backend: exec.Spec{Name: "sharded", Shards: 3, CheckpointDir: resumeCkpt, Keep: keep},
			})
			if err != nil {
				return "", err
			}
			return hashResult("chaos/resume", n, seed, run.Result), nil
		}
	}
	cases = append(cases, chaosCase{
		name: "resume-degrade",
		points: []faultpoint.Point{
			{Name: "shard.checkpoint.load", Kind: faultpoint.KindError, Count: 1},
		},
		cleanRun: resumeRun(true),
		run:      resumeRun(false),
	})

	// --- galactosd: worker panic + severed SSE streams ---------------------
	//
	// The faulted pass submits a job that panics inside the worker (it must
	// fail with panic provenance, not wedge the pool), then submits the same
	// request again and watches it over SSE streams the server severs on
	// schedule; the watcher reconnects, and the served result must be
	// bitwise-identical to a direct in-process Run.
	svcCat := catalog.Clustered(n, 240, catalog.DefaultClusterParams(), seed+102)
	svcReq := galactos.Request{Catalog: svcCat, Config: suiteConfig(), Label: "chaos-service"}
	cases = append(cases, chaosCase{
		name: "service-poison",
		points: []faultpoint.Point{
			{Name: "service.job.run", Kind: faultpoint.KindPanic, Count: 1},
			{Name: "service.sse.write", Kind: faultpoint.KindError, After: 2, Every: 3, Count: 2},
		},
		cleanRun: func(ctx context.Context) (string, error) {
			run, err := galactos.Run(ctx, svcReq)
			if err != nil {
				return "", err
			}
			return hashResult("chaos/service", n, seed, run.Result), nil
		},
		run: func(ctx context.Context) (string, error) {
			svc, err := service.New(service.Options{Workers: 1})
			if err != nil {
				return "", err
			}
			hs := httptest.NewServer(svc.Handler())
			defer hs.Close()
			defer func() {
				sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				svc.Shutdown(sctx)
			}()
			cl := client.New(hs.URL, hs.Client())

			poison, err := cl.Submit(ctx, svcReq)
			if err != nil {
				return "", err
			}
			final, err := cl.Watch(ctx, poison.ID, nil)
			if err != nil {
				return "", fmt.Errorf("watching poisoned job: %w", err)
			}
			if final.State != service.StateFailed || !strings.Contains(final.Error, "worker panic") {
				return "", fmt.Errorf("poisoned job ended %s (%q), want failed with panic provenance",
					final.State, final.Error)
			}

			st, err := cl.Submit(ctx, svcReq)
			if err != nil {
				return "", err
			}
			if final, err = cl.Watch(ctx, st.ID, nil); err != nil {
				return "", fmt.Errorf("watching across severed streams: %w", err)
			}
			if final.State != service.StateDone {
				return "", fmt.Errorf("job after the panic ended %s (%q), want done", final.State, final.Error)
			}
			res, err := cl.Result(ctx, st.ID)
			if err != nil {
				return "", err
			}
			return hashResult("chaos/service", n, seed, res), nil
		},
	})

	return cases, nil
}
