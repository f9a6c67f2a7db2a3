package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"galactos"
	"galactos/client"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/exec"
	"galactos/internal/service"
)

// The service_mix request script, per slice: coldPerSlice jobs on catalogs
// the server has never seen (every other one sent by Path), each waited on
// and fetched, then hitsPerSlice resubmissions drawn round-robin from
// hotRequests already-cached requests, each fetched. One client, closed
// loop: the next request leaves when the previous answer is in hand.
const (
	coldPerSlice = 4
	hitsPerSlice = 24
	hotRequests  = 8
	serviceN     = 500
	fixtureJobs  = 64
)

// httpService is a galactosd served in-process on a loopback port.
type httpService struct {
	srv  *service.Server
	http *http.Server
	done chan error
	cl   *client.Client
}

func startService(stateDir string) (*httpService, error) {
	srv, err := service.New(service.Options{Workers: 1, StateDir: stateDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	h := &httpService{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		cl:   client.New("http://"+ln.Addr().String(), nil),
	}
	go func() { h.done <- h.http.Serve(ln) }()
	return h, nil
}

// stop drains the job server, then the HTTP server, and waits for the
// serving goroutine.
func (h *httpService) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if herr := h.http.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-h.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// servedPayload is the bytes a request was answered with and what they are
// checked against: a hit's cold payload, or a cold job's expected pairs.
type servedPayload struct {
	got, want []byte
	pairs     uint64
}

type coldJob struct {
	req   galactos.Request
	pairs uint64
}

type hotRequest struct {
	req     galactos.Request
	payload []byte
}

type serviceWorkload struct {
	dir, fixtureDir string
	seed            int64
	n               int
	l               float64
	cfg             core.Config
	svc             *httpService
	hot             []hotRequest
	hotCat          *catalog.Catalog
	cold            []coldJob
	in              inputs
}

// serviceConfig keeps the engine's share of a cold job small (no self-pair
// correction, ~150 pairs per primary), so the layers around it carry the
// slice.
func serviceConfig(l float64) core.Config {
	cfg := baseConfig(periodicRMax(8, l), 10, 10)
	cfg.SelfCount = false
	return cfg
}

func newServiceWorkload(seed int64, scale float64, dir string) (w *serviceWorkload, err error) {
	n := scaled(serviceN, scale)
	w = &serviceWorkload{dir: dir, fixtureDir: filepath.Join(dir, "fixture"), seed: seed, n: n, l: boxFor(n)}
	w.cfg = serviceConfig(w.l)
	if w.svc, err = startService(filepath.Join(dir, "state")); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = w.svc.stop() // the construction error is the one to report
		}
	}()
	if err := w.verifyAgainstOracle(); err != nil {
		return nil, err
	}
	if err := w.fillCache(int(retainedJobs * scale)); err != nil {
		return nil, err
	}
	if err := buildFixture(w.fixtureDir, max(4, int(fixtureJobs*scale)), seed); err != nil {
		return nil, fmt.Errorf("fixture state dir: %w", err)
	}
	return w, nil
}

// catalogFor numbers the run's catalogs: 0..hotRequests-1 are the cached
// set, the rest are consumed coldPerSlice per slice.
func (w *serviceWorkload) catalogFor(k int) *catalog.Catalog {
	return catalog.Uniform(w.n, w.l, w.seed*1_000_003+int64(k))
}

// requestFor sends every other catalog by Path, so the server's file
// decode and second content hash are exercised beside the inline JSON path.
func (w *serviceWorkload) requestFor(cat *catalog.Catalog, k int, file string) (galactos.Request, error) {
	req := galactos.Request{Config: w.cfg}
	if k%2 == 0 {
		req.Catalog = cat
		return req, nil
	}
	req.Path = filepath.Join(w.dir, file)
	return req, catalog.SaveBinary(req.Path, cat)
}

// serve submits one request and returns its final status, payload and
// client-observed latency (submit to result bytes in hand).
func (w *serviceWorkload) serve(tr *tracer, req galactos.Request) (st client.JobStatus, payload []byte, ms float64, err error) {
	ctx := context.Background()
	t0 := time.Now()
	if err = tr.do("client.Submit", func() (err error) {
		st, err = w.svc.cl.Submit(ctx, req)
		return err
	}); err != nil {
		return
	}
	if !st.State.Terminal() {
		if err = tr.do("client.Wait", func() (err error) {
			st, err = w.svc.cl.Wait(ctx, st.ID)
			return err
		}); err != nil {
			return
		}
	}
	if st.State != service.StateDone {
		return st, nil, 0, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	err = tr.do("client.ResultBytes", func() (err error) {
		payload, err = w.svc.cl.ResultBytes(ctx, st.ID)
		return err
	})
	return st, payload, float64(time.Since(t0).Nanoseconds()) / 1e6, err
}

// retainedJobs is service.Options.RetainJobs' default: how many finished
// jobs, each holding its encoded result, the server keeps registered.
const retainedJobs = 256

// fillCache runs the hot requests cold, keeps their payloads, and checks the
// first against a direct galactos.Run of the same request, bit for bit.
// It then resubmits resubmissions times, enough at scale 1 to fill the
// server's job retention, so that its memory and registry are in their
// steady state from the first slice.
func (w *serviceWorkload) fillCache(resubmissions int) error {
	for k := 0; k < hotRequests; k++ {
		cat := w.catalogFor(k)
		req, err := w.requestFor(cat, k, fmt.Sprintf("hot-%d.glxc", k))
		if err != nil {
			return err
		}
		_, payload, _, err := w.serve(nil, req)
		if err != nil {
			return err
		}
		w.hot = append(w.hot, hotRequest{req: req, payload: payload})
		if k > 0 {
			continue
		}
		w.hotCat = cat
		if w.in, err = describeInputs(cat, w.cfg); err != nil {
			return err
		}
		served, err := core.ReadResult(bytes.NewReader(payload))
		if err != nil {
			return err
		}
		direct, err := galactos.Run(context.Background(), req)
		if err != nil {
			return err
		}
		if err := checkSameZeta(served, direct.Result, 0); err != nil {
			return fmt.Errorf("served result is not the direct run's: %w", err)
		}
	}
	for k := 0; k < resubmissions; k++ {
		if _, _, _, err := w.serve(nil, w.hot[k%len(w.hot)].req); err != nil {
			return err
		}
	}
	return nil
}

func (w *serviceWorkload) verifyAgainstOracle() error {
	l := oracleBox * w.cfg.RMax
	cat := catalog.Uniform(oracleN, l, w.seed)
	cfg := serviceConfig(l)
	cfg.SelfCount = true
	cfg.Finder = core.FinderKD64
	_, payload, _, err := w.serve(nil, galactos.Request{Config: cfg, Catalog: cat})
	if err != nil {
		return fmt.Errorf("oracle job: %w", err)
	}
	res, err := core.ReadResult(bytes.NewReader(payload))
	if err != nil {
		return err
	}
	return compareWithOracle(res, cat, cfg)
}

// buildFixture leaves a state directory holding jobs finished jobs: what a
// restarted galactosd replays from its journal and re-indexes from its
// disk cache. The jobs are small; their number, not their size, is the work.
func buildFixture(dir string, jobs int, seed int64) error {
	svc, err := startService(dir)
	if err != nil {
		return err
	}
	cfg := baseConfig(4, 3, 2)
	for k := 0; k < jobs; k++ {
		req := galactos.Request{Config: cfg, Catalog: catalog.Uniform(120, 20, seed*1_000_003-int64(k)-1)}
		st, err := svc.cl.Submit(context.Background(), req)
		if err == nil && !st.State.Terminal() {
			st, err = svc.cl.Wait(context.Background(), st.ID)
		}
		if err == nil && st.State != service.StateDone {
			err = fmt.Errorf("fixture job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if err != nil {
			_ = svc.stop() // the job error is the one to report
			return err
		}
	}
	return svc.stop()
}

func (w *serviceWorkload) reset(slice int) error {
	w.cold = w.cold[:0]
	for i := 0; i < coldPerSlice; i++ {
		cat := w.catalogFor(hotRequests + slice*coldPerSlice + i)
		req, err := w.requestFor(cat, i, fmt.Sprintf("cold-%d.glxc", i))
		if err != nil {
			return err
		}
		pairs, err := countPairs(cat, w.cfg)
		if err != nil {
			return err
		}
		w.cold = append(w.cold, coldJob{req: req, pairs: pairs})
	}
	return nil
}

// setup is restart recovery: boot a server on the fixture state directory
// (journal replay, compaction, cache index rebuild) and stop it.
func (w *serviceWorkload) setup(tr *tracer) error {
	var srv *service.Server
	if err := tr.do("service.New", func() (err error) {
		srv, err = service.New(service.Options{Workers: 1, StateDir: w.fixtureDir})
		return err
	}); err != nil {
		return err
	}
	return tr.do("service.Server.Shutdown", func() error { return srv.Shutdown(context.Background()) })
}

func (w *serviceWorkload) solve(tr *tracer) (*outcome, error) {
	o := &outcome{}
	for _, job := range w.cold {
		o.ops++
		st, payload, _, err := w.serve(tr, job.req)
		if err != nil || st.CacheHit {
			o.failed++
			continue
		}
		o.engineS += st.ElapsedSec
		o.payloads = append(o.payloads, servedPayload{got: payload, pairs: job.pairs})
	}
	for i := 0; i < hitsPerSlice; i++ {
		o.ops++
		hot := w.hot[i%len(w.hot)]
		st, payload, ms, err := w.serve(tr, hot.req)
		if err != nil || !st.CacheHit {
			o.failed++
			continue
		}
		o.hitMs = append(o.hitMs, ms)
		o.payloads = append(o.payloads, servedPayload{got: payload, want: hot.payload})
	}
	return o, nil
}

// settle waits until the server has no job queued or running. The request
// script waits for every job it submits, so this returns at once unless a
// job outlives its answer.
func (w *serviceWorkload) settle() error {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		if st := w.svc.srv.Stats(); st.Queued == 0 && st.Running == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("server still has jobs in flight 10 s after the slice's last answer")
		}
	}
}

// check decodes every cold payload and compares its pair count with the
// 2PCF counter's, and requires every hit payload to be its cold payload
// byte for byte. Each payload that fails is one failed operation.
func (w *serviceWorkload) check(o *outcome) error {
	var firstErr error
	for _, p := range o.payloads {
		var err error
		if p.want != nil {
			if !bytes.Equal(p.got, p.want) {
				err = fmt.Errorf("a cache hit's payload differs from the cold run's")
			}
		} else if res, rerr := core.ReadResult(bytes.NewReader(p.got)); rerr != nil {
			err = rerr
		} else if err = checkPairs(res, p.pairs); err == nil {
			o.timings.Add(res.Timings)
		}
		if err != nil {
			o.failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// reference is the first cached request's result.
func (w *serviceWorkload) reference() (*core.Result, error) {
	return core.ReadResult(bytes.NewReader(w.hot[0].payload))
}

func (w *serviceWorkload) describe() inputs { return w.in }

func (w *serviceWorkload) probeInputs() probeInputs {
	return probeInputs{cat: w.hotCat, path: w.hot[1].req.Path, cfg: w.cfg, backend: exec.Spec{Name: "local"}, dir: w.dir}
}

func (w *serviceWorkload) probeRequest() galactos.Request { return w.hot[0].req }

func (w *serviceWorkload) close() error { return w.svc.stop() }
