package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"galactos"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/exec"
	"galactos/internal/geom"
	"galactos/internal/grid"
	"galactos/internal/hist"
	"galactos/internal/journal"
	"galactos/internal/kdtree"
	"galactos/internal/partition"
	"galactos/internal/service"
	"galactos/internal/sphharm"
)

// probes times calls into each layer's public API on one workload's inputs
// and files the results under the per-layer metric names. Every call runs
// inside a span, so the trace shows the probes beside the slices.
type probes struct {
	in probeInputs
	tr *tracer
	m  map[string]float64
}

// runProbes executes every layer probe. The layers are measured from
// outside: nothing here reads a counter the program keeps for itself,
// except Result.Timings and Stats, which are public return values.
func runProbes(in probeInputs, req galactos.Request, tr *tracer) (map[string]float64, error) {
	var err error
	if in.cfg, err = in.cfg.Normalize(); err != nil {
		return nil, err
	}
	p := &probes{in: in, tr: tr, m: map[string]float64{}}
	for _, probe := range []func() error{
		p.catalog, p.finders, p.sphharm, p.core, p.shard, p.journal,
		func() error { return p.service(req) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.m, nil
}

// timed runs f reps times, each in its own span, and returns the median
// duration in seconds.
func (p *probes) timed(name string, reps int, f func() error) (float64, error) {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		if err := p.tr.do(name, f); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d[i] = time.Since(t0).Seconds()
	}
	return median(d), nil
}

// perCall times calls too short for a span each: five spans of iters calls,
// median seconds per call.
func (p *probes) perCall(name string, iters int, f func()) float64 {
	d, _ := p.timed(name, 5, func() error { // f cannot fail
		for i := 0; i < iters; i++ {
			f()
		}
		return nil
	})
	return d / float64(iters)
}

func dirBytes(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return float64(n), err
}

func (p *probes) catalog() error {
	fi, err := os.Stat(p.in.path)
	if err != nil {
		return err
	}
	mb := float64(fi.Size()) / 1e6
	src := catalog.NewFileSource(p.in.path)
	decode, err := p.timed("catalog.ReadAll", 5, func() error { _, err := catalog.ReadAll(src); return err })
	if err != nil {
		return err
	}
	hash, err := p.timed("catalog.Hash", 5, func() error { _, err := catalog.Hash(src); return err })
	if err != nil {
		return err
	}
	p.m["catalog.bytes"] = float64(fi.Size())
	p.m["catalog.decode_mb_per_s"] = mb / decode
	p.m["catalog.hash_mb_per_s"] = mb / hash
	return nil
}

// finders builds both neighbour indexes over the workload's positions and
// queries the same sampled centres through each, the way the engine drives
// them: the tree sweeps the periodic images, the grid wraps natively.
func (p *probes) finders() error {
	pts := p.in.cat.Positions()
	rmax := p.in.cfg.RMax
	centres := make([]geom.Vec3, min(2000, len(pts)))
	for i := range centres {
		centres[i] = pts[i*len(pts)/len(centres)]
	}
	query := func(name string, f core.NeighborFinder, images []geom.Vec3) (perNbr, perQuery float64) {
		var buf []int32
		var nbrs int
		d, _ := p.timed(name, 3, func() error { // queries cannot fail
			nbrs = 0
			for _, c := range centres {
				buf = f.QueryRadiusImages(c, rmax, images, buf[:0])
				nbrs += len(buf)
			}
			return nil
		})
		return d * 1e9 / float64(max(nbrs, 1)), float64(nbrs) / float64(len(centres))
	}

	var tree *kdtree.Tree[float32]
	build, _ := p.timed("kdtree.Build", 3, func() error { // Build cannot fail
		tree = kdtree.Build[float32](pts, p.in.cfg.LeafSize)
		return nil
	})
	p.m["kdtree.build_s"] = build
	p.m["kdtree.build_mpts_per_s"] = float64(len(pts)) / 1e6 / build
	p.m["kdtree.query_ns_per_nbr"], p.m["kdtree.nbrs_per_query"] =
		query("kdtree.QueryRadiusImages", tree, p.in.cat.Box.Images(rmax))

	var g *grid.Grid
	p.m["grid.build_s"], _ = p.timed("grid.Build", 3, func() error {
		g = grid.Build(pts, p.in.cfg.GridCell, p.in.cat.Box)
		return nil
	})
	p.m["grid.query_ns_per_nbr"], _ = query("grid.QueryRadiusImages", g, []geom.Vec3{{}})
	return nil
}

// sphharm times the kernel ladder and the a_lm/zeta stage at the workload's
// l_max, bin count and bucket size, on synthetic unit separations: the
// kernels' cost does not depend on where the pairs point.
func (p *probes) sphharm() error {
	lmax, nb := p.in.cfg.LMax, p.in.cfg.NBins
	const tile, block = 1024, 32 // pairs per tile, primaries per zeta batch
	rng := rand.New(rand.NewSource(42))
	mono := sphharm.NewMonomialTable(lmax)
	ytab := sphharm.NewYlmTable(lmax, mono)
	kernel := sphharm.NewKernel(mono, p.in.cfg.BucketSize)
	xs, ys, zs, ws := make([]float64, tile), make([]float64, tile), make([]float64, tile), make([]float64, tile)
	for i := range xs {
		u := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		u = u.Scale(1 / u.Norm())
		xs[i], ys[i], zs[i], ws[i] = u.X, u.Y, u.Z, 1
	}
	acc := make([]float64, sphharm.AccumulatorLen(mono))
	perTile := p.perCall("sphharm.Kernel.AccumulateTile", 50, func() { kernel.AccumulateTile(xs, ys, zs, ws, acc) })
	flops := float64(sphharm.FlopsPerPair(lmax))
	p.m["sphharm.tile_ns_per_pair"] = perTile * 1e9 / tile
	p.m["sphharm.flops_per_pair"] = flops
	p.m["sphharm.tile_gflops"] = flops * tile / perTile / 1e9 // computed from the operation count, not counted

	msums := make([]float64, mono.Len())
	p.m["sphharm.reduce_ns"] = 1e9 * p.perCall("sphharm.Reduce", 2000, func() { sphharm.Reduce(acc, msums) })
	pc := sphharm.PairCount(lmax)
	re, im := make([]float64, pc), make([]float64, pc)
	p.m["sphharm.alm_ns_per_bin"] = 1e9 * p.perCall("sphharm.YlmTable.AlmRI", 2000, func() { ytab.AlmRI(msums, re, im) })

	stride := block * 2 * nb
	slab, weighted := make([]float64, pc*stride), make([]float64, pc*stride)
	for i := range slab {
		slab[i] = rng.NormFloat64()
		weighted[i] = 1.25 * slab[i]
	}
	combos := core.NewComboTable(lmax)
	aniso := make([]complex128, combos.Len()*nb*nb)
	perBatch := p.perCall("sphharm.ZetaBatch", 20, func() {
		for ci, c := range combos.Combos {
			i1, i2 := sphharm.PairIndex(c.L1, c.M)*stride, sphharm.PairIndex(c.L2, c.M)*stride
			sphharm.ZetaBatch(aniso[ci*nb*nb:(ci+1)*nb*nb], slab[i2:i2+stride], weighted[i1:i1+stride], nb, block)
		}
	})
	p.m["sphharm.zeta_batch_ns_per_update"] = perBatch * 1e9 / float64(combos.Len()*block)

	iso := make([]float64, pc*nb*nb)
	w := make([]float64, block)
	for i := range w {
		w[i] = 1.25
	}
	perIso := p.perCall("sphharm.ZetaBatchIso", 50, func() {
		for s := 0; s < pc; s++ {
			sphharm.ZetaBatchIso(iso[s*nb*nb:(s+1)*nb*nb], slab[s*stride:(s+1)*stride], w, nb, block)
		}
	})
	p.m["sphharm.zeta_iso_ns_per_update"] = perIso * 1e9 / float64(pc*block)
	p.m["sphharm.dispatch_vector"] = 0
	if sphharm.LaneDispatch() != "generic" {
		p.m["sphharm.dispatch_vector"] = 1
	}
	return nil
}

// core calls the engine directly, beside the same computation through the
// facade's local backend, so the execution layer's own cost is the
// difference; then the result codec, merge and fingerprint.
func (p *probes) core() error {
	ctx := context.Background()
	var res *core.Result
	var direct, overhead []float64
	for i := 0; i < 3; i++ { // paired, so host drift lands on both sides of each difference
		t0 := time.Now()
		if err := p.tr.do("core.ComputeContext", func() (err error) {
			res, err = core.ComputeContext(ctx, p.in.cat, p.in.cfg)
			return err
		}); err != nil {
			return err
		}
		direct = append(direct, time.Since(t0).Seconds())
		t0 = time.Now()
		if err := p.tr.do("galactos.Run(local)", func() error {
			_, err := galactos.Run(ctx, galactos.Request{Catalog: p.in.cat, Config: p.in.cfg})
			return err
		}); err != nil {
			return err
		}
		overhead = append(overhead, time.Since(t0).Seconds()-direct[i])
	}
	t1 := median(direct)
	p.m["core.compute_s"] = t1
	p.m["core.pairs"] = float64(res.Pairs)
	p.m["core.mpairs_per_s"] = float64(res.Pairs) / 1e6 / t1
	p.m["core.pairs_per_primary"] = float64(res.Pairs) / float64(max(res.NPrimaries, 1))
	p.m["exec.overhead_s"] = median(overhead)

	p.m["core.parallel_eff_w2"] = 0 // no second CPU, no number
	if runtime.NumCPU() >= 2 {
		two := p.in.cfg
		two.Workers = 2
		t2, err := p.timed("core.ComputeContext(w2)", 1, func() error {
			_, err := core.ComputeContext(ctx, p.in.cat, two)
			return err
		})
		if err != nil {
			return err
		}
		p.m["core.parallel_eff_w2"] = t1 / (2 * t2)
	}

	var buf bytes.Buffer
	enc, err := p.timed("core.WriteResult", 5, func() error {
		buf.Reset()
		return core.WriteResult(&buf, res)
	})
	if err != nil {
		return err
	}
	dec, err := p.timed("core.ReadResult", 5, func() error {
		_, err := core.ReadResult(bytes.NewReader(buf.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	mb := float64(buf.Len()) / 1e6
	p.m["core.result_bytes"] = float64(buf.Len())
	p.m["core.encode_mb_per_s"] = mb / enc
	p.m["core.decode_mb_per_s"] = mb / dec

	bins, err := hist.NewBinning(p.in.cfg.RMin, p.in.cfg.RMax, p.in.cfg.NBins)
	if err != nil {
		return err
	}
	total := core.NewResult(p.in.cfg.LMax, bins)
	merge, err := p.timed("core.Result.Merge", 5, func() error { return total.Merge(res) })
	if err != nil {
		return err
	}
	p.m["core.merge_ms"] = merge * 1e3
	p.m["core.fingerprint_us"] = 1e6 * p.perCall("core.Config.Fingerprint", 200, func() {
		_, _ = p.in.cfg.Fingerprint() // the config normalized above cannot fail
	})
	return nil
}

// shard cuts the workload's catalog with the k-d partitioner, then runs the
// catalog file through the streaming sharded pipeline and once more with
// every checkpoint present.
func (p *probes) shard() error {
	ctx := context.Background()
	shards := p.in.backend.Shards
	if shards == 0 {
		shards = 4 // workloads that do not shard still pay for a modest split
	}
	n := float64(p.in.cat.Len())
	var parts []partition.Part
	split, err := p.timed("partition.Split", 3, func() (err error) {
		parts, err = partition.Split(p.in.cat, shards)
		return err
	})
	if err != nil {
		return err
	}
	halo := 0
	if err := p.tr.do("partition.Halo", func() error {
		for i := range parts {
			halo += len(partition.Halo(p.in.cat, parts, i, p.in.cfg.RMax))
		}
		return nil
	}); err != nil {
		return err
	}
	p.m["partition.split_s"] = split
	p.m["partition.halo_frac"] = float64(halo) / n

	dir := filepath.Join(p.in.dir, "probe-checkpoints")
	req := galactos.Request{Path: p.in.path, Config: p.in.cfg, Backend: exec.Spec{
		Name: "sharded", Shards: shards, ShardConcurrency: 1, Stream: true, CheckpointDir: dir, Keep: true,
	}}
	var run *galactos.RunResult
	if err := p.tr.do("galactos.Run(sharded)", func() (err error) {
		run, err = galactos.Run(ctx, req)
		return err
	}); err != nil {
		return err
	}
	var engine time.Duration
	var records int
	for _, u := range run.Units {
		engine += u.Elapsed
		records += u.NOwned + u.NHalo
	}
	p.m["shard.overhead_s"] = (run.Elapsed - engine).Seconds()
	p.m["shard.halo_dup_ratio"] = float64(records) / n
	p.m["shard.spill_bytes"] = float64(records * catalog.RecordSize) // computed: the spill files are gone when Run returns
	if p.m["shard.checkpoint_bytes"], err = dirBytes(dir); err != nil {
		return err
	}
	req.Backend.Resume = true
	if p.m["shard.resume_s"], err = p.timed("galactos.Run(sharded,resume)", 1, func() error {
		_, err := galactos.Run(ctx, req)
		return err
	}); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// journalRecords is how many submit records the journal probe appends.
const journalRecords = 200

func (p *probes) journal() error {
	dir := filepath.Join(p.in.dir, "probe-journal")
	wire, err := json.Marshal(galactos.Request{Path: p.in.path, Config: p.in.cfg, Backend: p.in.backend})
	if err != nil {
		return err
	}
	j, _, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		return err
	}
	us := make([]float64, journalRecords)
	err = p.tr.do("journal.Append", func() error {
		for i := range us {
			t0 := time.Now()
			if err := j.Append(journal.Record{
				Type: journal.RecordSubmit, ID: fmt.Sprintf("job-%06d", i), Time: t0.UTC(),
				Key: "probe", Request: wire,
			}); err != nil {
				return err
			}
			us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		return nil
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	sort.Float64s(us)
	p.m["journal.append_us_p50"] = quantile(us, 0.50)
	p.m["journal.append_us_p95"] = quantile(us, 0.95)
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	p.m["journal.bytes_per_record"] = size / journalRecords
	replay, err := p.timed("journal.Open", 3, func() error {
		j, recs, err := journal.Open(journal.Options{Dir: dir})
		if err != nil {
			return err
		}
		if len(recs) != journalRecords {
			err = fmt.Errorf("replayed %d records, appended %d", len(recs), journalRecords)
		}
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	p.m["journal.replay_ms_per_1k"] = replay * 1e3 * 1000 / journalRecords
	return os.RemoveAll(dir)
}

// service sends the workload's own request to a durable in-process
// galactosd over loopback HTTP: once cold, then as cache hits, then once
// with a streamed event log, and finally restarts a server on the state
// directory the exchange left behind.
func (p *probes) service(req galactos.Request) error {
	ctx := context.Background()
	req.Backend.CheckpointDir = "" // the server assigns sharded jobs their own
	stateDir := filepath.Join(p.in.dir, "probe-state")
	svc, err := startService(stateDir)
	if err != nil {
		return err
	}
	err = func() error {
		var st service.JobStatus
		t0 := time.Now()
		if err := p.tr.do("client.Submit", func() (err error) {
			st, err = svc.cl.Submit(ctx, req)
			return err
		}); err != nil {
			return err
		}
		p.m["service.submit_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err := p.tr.do("client.Wait", func() (err error) {
			st, err = svc.cl.Wait(ctx, st.ID)
			return err
		}); err != nil {
			return err
		}
		if st.State != service.StateDone {
			return fmt.Errorf("probe job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if err := p.tr.do("client.ResultBytes", func() error {
			_, err := svc.cl.ResultBytes(ctx, st.ID)
			return err
		}); err != nil {
			return err
		}
		p.m["service.cold_overhead_ms"] = float64(time.Since(t0).Nanoseconds())/1e6 - st.ElapsedSec*1e3

		const hits = 20
		var submit, total, fetchMB []float64
		for i := 0; i < hits; i++ {
			var payload []byte
			t0 := time.Now()
			if err := p.tr.do("client.Submit", func() (err error) {
				st, err = svc.cl.Submit(ctx, req)
				return err
			}); err != nil {
				return err
			}
			t1 := time.Now()
			if !st.CacheHit {
				return fmt.Errorf("probe resubmission %s was not a cache hit", st.ID)
			}
			if err := p.tr.do("client.ResultBytes", func() (err error) {
				payload, err = svc.cl.ResultBytes(ctx, st.ID)
				return err
			}); err != nil {
				return err
			}
			t2 := time.Now()
			submit = append(submit, float64(t1.Sub(t0).Nanoseconds())/1e6)
			total = append(total, float64(t2.Sub(t0).Nanoseconds())/1e6)
			fetchMB = append(fetchMB, float64(len(payload))/1e6/t2.Sub(t1).Seconds())
		}
		p.m["service.hit_submit_ms"] = median(submit)
		p.m["service.hit_ms"] = median(total)
		p.m["client.result_fetch_mb_per_s"] = median(fetchMB)

		events := 0
		if err := p.tr.do("client.SubmitStream", func() error {
			_, err := svc.cl.SubmitStream(ctx, req, func(service.Event) { events++ })
			return err
		}); err != nil {
			return err
		}
		p.m["client.sse_events"] = float64(events)
		stats, err := svc.cl.Stats(ctx)
		if err != nil {
			return err
		}
		p.m["service.cache_hit_ratio"] = float64(stats.CacheHits) / float64(stats.CacheHits+stats.CacheMisses)
		return nil
	}()
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	boot, err := p.timed("service.New+Shutdown", 3, func() error {
		srv, err := service.New(service.Options{Workers: 1, StateDir: stateDir})
		if err != nil {
			return err
		}
		return srv.Shutdown(ctx)
	})
	if err != nil {
		return err
	}
	p.m["service.boot_ms"] = boot * 1e3
	return os.RemoveAll(stateDir)
}
