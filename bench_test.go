// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md's experiment index), sized so
// `go test -bench=. -benchmem` completes on a laptop. The richer
// paper-style reports (with the published numbers printed side by side)
// come from `go run ./cmd/galactos-bench -exp all`.
package galactos_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"galactos"
	"galactos/internal/bruteforce"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
	"galactos/internal/grid"
	"galactos/internal/hist"
	"galactos/internal/kdtree"
	"galactos/internal/nbr"
	"galactos/internal/sim"
	"galactos/internal/sphharm"
)

// benchCatalog returns a clustered catalog at the Outer Rim number density.
func benchCatalog(n int, seed int64) *galactos.Catalog {
	return catalog.Clustered(n, catalog.BoxForDensity(n), catalog.DefaultClusterParams(), seed)
}

// benchConfig is the paper-shaped configuration at reduced Rmax.
func benchConfig(rmax float64) galactos.Config {
	cfg := galactos.DefaultConfig()
	cfg.RMax = rmax
	cfg.NBins = 10
	cfg.LMax = 10
	cfg.SelfCount = false
	return cfg
}

// BenchmarkCompute times the full single-node pipeline at the default
// multipole order (l_max = 10) and reports its pairs/sec. The repository
// benchmark (bench/run.sh) is what gates performance; this is the quick
// in-tree reading.
func BenchmarkCompute(b *testing.B) {
	cat := benchCatalog(6000, 5)
	cfg := benchConfig(15)
	b.ResetTimer()
	var pairs uint64
	for i := 0; i < b.N; i++ {
		res := compute(b, cat, cfg)
		pairs += res.Pairs
	}
	b.ReportMetric(float64(pairs)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
}

// BenchmarkKernelTile measures the multipole kernel alone (Sec. 3.3.2; the
// paper reaches 1017 GF/s = 39% of Xeon Phi peak on its 286-monomial form) —
// the (l+1)^2-sum ladder over hoisted z powers, one dispatch per chunk,
// AVX-512 lane bodies where available — at the chunk lengths the engine hands it: 8, 22, 73 are
// the mean pairs per kernel chunk on stream_sharded, iso_survey and
// aniso_box (EXPERIMENTS.md "Layer: block commit + chunk dispatch"), 128 is
// one full chunk, and 1024 (eight chunks) is the bench's
// sphharm.tile_ns_per_pair probe shape. ns/chunk at n <= 128 is the chunk's
// fixed cost plus n pairs of streaming work. The portable/ rows bind the
// pure-Go bodies: the same bits, at what arm64 and amd64 hosts without
// AVX-512 pay.
func BenchmarkKernelTile(b *testing.B) {
	mono := sphharm.NewMonomialTable(10)
	defer sphharm.SetLaneDispatch(sphharm.LaneDispatch() == "avx512")
	for _, prefix := range []string{"", "portable/"} {
		for _, n := range []int{8, 22, 73, 128, 1024} {
			b.Run(fmt.Sprintf("%sn=%d", prefix, n), func(b *testing.B) {
				sphharm.SetLaneDispatch(prefix == "")
				k := sphharm.NewKernel(mono, 128)
				xs := make([]float64, n)
				ys := make([]float64, n)
				zs := make([]float64, n)
				ws := make([]float64, n)
				for i := range xs {
					xs[i], ys[i], zs[i], ws[i] = 0.5, 0.5, 0.70710678, 1
				}
				acc := make([]float64, sphharm.AccumulatorLen(mono))
				b.SetBytes(int64(n) * 3 * 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.AccumulateTile(xs, ys, zs, ws, acc)
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				chunks := float64((n + 127) / 128)
				b.ReportMetric(ns/chunks, "ns/chunk")
				b.ReportMetric(ns/float64(n), "ns/pair")
				b.ReportMetric(float64(n)*float64(sphharm.FlopsPerPair(10))/ns, "GFLOP/s")
			})
		}
	}
}

// BenchmarkSelfMoments measures the self-pair layer alone: the Legendre
// moments sum_j w_j^2 P_L(mu_j), L <= 2 lmax, of one tile — all the
// SelfCount correction costs per pair. The tile length is iso_survey's
// typical (primary, bin) tile, so the four-pair body and the tail both run.
func BenchmarkSelfMoments(b *testing.B) {
	const n = 19
	rng := rand.New(rand.NewSource(17))
	zs := make([]float64, n)
	ws := make([]float64, n)
	for i := range zs {
		zs[i], ws[i] = 2*rng.Float64()-1, 1
	}
	for _, lmax := range []int{4, 10} {
		b.Run(fmt.Sprintf("lmax=%d", lmax), func(b *testing.B) {
			out := make([]float64, 2*lmax+1)
			for i := 0; i < b.N; i++ {
				sphharm.LegendreMoments(zs, ws, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/pair")
		})
	}
}

// BenchmarkQueryRadius isolates the neighbor-gathering phase (perfstat's
// tree_search): the fused multi-image radius query per finder substrate, at
// the BenchmarkCompute scenario's geometry. The k-d trees sweep all 27
// periodic images through one QueryRadiusImages call (root-pruned); the
// grid wraps natively and takes the single zero offset, exactly as the
// engine drives it.
func BenchmarkQueryRadius(b *testing.B) {
	cat := benchCatalog(6000, 5)
	pts := cat.Positions()
	const rmax = 15.0
	images := cat.Box.Images(rmax)
	zero := []geom.Vec3{{}}
	finders := []struct {
		name   string
		f      core.NeighborFinder
		images []geom.Vec3
	}{
		{"kd32", kdtree.Build[float32](pts, 0), images},
		{"kd64", kdtree.Build[float64](pts, 0), images},
		{"grid", grid.Build(pts, rmax/4, cat.Box), zero},
	}
	for _, fc := range finders {
		b.Run(fc.name, func(b *testing.B) {
			buf := make([]int32, 0, 4096)
			var neighbors uint64
			for i := 0; i < b.N; i++ {
				buf = fc.f.QueryRadiusImages(pts[i%len(pts)], rmax, fc.images, buf[:0])
				neighbors += uint64(len(buf))
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e3, "kqueries/s")
			b.ReportMetric(float64(neighbors)/b.Elapsed().Seconds()/1e6, "Mnbrs/s")
		})
	}
}

// BenchmarkAlmZeta isolates the reduction phase (perfstat's alm_zeta) at
// commit-unit granularity, the way engine.processBlock runs it: per primary
// the lane-sum Reduce, monomial -> a_lm conversion, and the slab fill by bin
// (untouched bins zero-padded), then per channel the tile clear, one fused
// ZetaBatch call folding the whole unit into the tile, and the commit into
// the partial result (10 bins, l_max 10). "dense" is the all-bins-touched
// 32-primary unit; "aniso_box" is the occupancy measured on that workload
// (seed 2: mean K 21, 37 % of primaries missing one inner bin); "k=2" is
// what a unit was on stream_sharded while a unit was one cell (mean K 1.6) —
// the per-unit tile traffic of 286 channels spread over two primaries, the
// cost coalescing cells into units amortises.
func BenchmarkAlmZeta(b *testing.B) {
	b.Run("dense", func(b *testing.B) { benchAlmZeta(b, 32, 0) })
	b.Run("aniso_box", func(b *testing.B) { benchAlmZeta(b, 21, 0.37) })
	b.Run("k=2", func(b *testing.B) { benchAlmZeta(b, 2, 0) })
}

// benchAlmZeta runs one K-primary unit's stage 2 reduction, stage 3 zeta and
// commit per iteration; missFrac of the primaries leave one of the three innermost
// bins untouched.
func benchAlmZeta(b *testing.B, K int, missFrac float64) {
	const lmax, nb = 10, 10
	mono := sphharm.NewMonomialTable(lmax)
	ytab := sphharm.NewYlmTable(lmax, mono)
	combos := core.NewComboTable(lmax)
	pc := sphharm.PairCount(lmax)

	rng := rand.New(rand.NewSource(42))
	acc := make([][]float64, nb)
	for bin := range acc {
		acc[bin] = make([]float64, sphharm.AccumulatorLen(mono))
		for i := range acc[bin] {
			acc[bin][i] = rng.NormFloat64()
		}
	}
	missing := make([]int, K) // the bin primary a did not touch, -1 for none
	for a := range missing {
		missing[a] = -1
		if rng.Float64() < missFrac {
			missing[a] = rng.Intn(3)
		}
	}
	msums := make([]float64, mono.Len())
	reScr := make([]float64, pc)
	imScr := make([]float64, pc)
	stride2 := K * 2 * nb
	aSlab := make([]float64, pc*stride2)
	wXY := make([]float64, pc*stride2)
	aniso := make([]complex128, combos.Len()*nb*nb)
	partial := make([]complex128, len(aniso))
	const pw = 1.25

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := 0; a < K; a++ {
			if missing[a] >= 0 {
				for o := a * 2 * nb; o < pc*stride2; o += stride2 {
					clear(aSlab[o : o+2*nb])
					clear(wXY[o : o+2*nb])
				}
			}
			for t := 0; t < nb; t++ {
				if t == missing[a] {
					continue
				}
				sphharm.Reduce(acc[t], msums)
				ytab.AlmRI(msums, reScr, imScr)
				o := a*2*nb + 2*t
				for j := 0; j < pc; j++ {
					re, im := reScr[j], imScr[j]
					wXY[o] = pw * re
					wXY[o+1] = pw * im
					aSlab[o] = re
					aSlab[o+1] = im
					o += stride2
				}
			}
		}
		for ci, c := range combos.Combos {
			i1 := sphharm.PairIndex(c.L1, c.M) * stride2
			i2 := sphharm.PairIndex(c.L2, c.M) * stride2
			tile := aniso[ci*nb*nb : (ci+1)*nb*nb]
			clear(tile)
			sphharm.ZetaBatch(tile, aSlab[i2:i2+stride2], wXY[i1:i1+stride2], nb, K)
		}
		for j, v := range aniso {
			partial[j] += v
		}
	}
	b.ReportMetric(float64(b.N)*float64(K)/b.Elapsed().Seconds()/1e3, "kprimaries/s")
}

// BenchmarkPairsPerPrimary sweeps pairs per primary at fixed N: the regime
// where the engine's costs that do not scale with pairs show. Uniform(4000)
// in a 100 box at 20 bins, l_max 10; RMax 6 / 10 / 16 / 25 gives ~3.6 / 17 /
// 69 / 262 pairs per primary. While a commit unit was one cell the sparse
// end lost — the 3.6 row took 1.5 s, twice the 262 row, because ~4000
// one-primary units each paid the 286-channel clear, zeta call and commit,
// and every few-pair kernel chunk ~140 dispatches; with cells coalesced into
// units and one ladder dispatch per chunk the time grows with the pair
// count again (EXPERIMENTS.md "Layer: block commit + chunk dispatch").
func BenchmarkPairsPerPrimary(b *testing.B) {
	cat := catalog.Uniform(4000, 100, 9)
	for _, rmax := range []float64{6, 10, 16, 25} {
		b.Run(fmt.Sprintf("rmax=%g", rmax), func(b *testing.B) {
			cfg := benchConfig(rmax)
			cfg.NBins = 20
			cfg.Workers = 1
			var res *galactos.Result
			for i := 0; i < b.N; i++ {
				res = compute(b, cat, cfg)
			}
			b.ReportMetric(float64(res.Pairs)/float64(res.NPrimaries), "pairs/primary")
		})
	}
}

// BenchmarkUnitGather attributes the gather phase at the geometry the engine
// issues on a sparse input (stream_sharded's: RMax 5 at the Outer Rim
// density, ~39 neighbours per query): one commit unit's 31 primaries — a run
// of the Morton order over RMax/2 cells — queried across all 27 periodic
// images. "lanes" and "portable" are the two bodies of the unit-level
// QueryRadiusImagesBlock, "per-primary" the single-center QueryRadiusImages
// calls whose lists it must reproduce; each reports ns per neighbour found.
func BenchmarkUnitGather(b *testing.B) {
	cat := benchCatalog(24000, 5)
	pts := cat.Positions()
	const rmax, K = 5.0, 31
	images := cat.Box.Images(rmax)
	key := func(p geom.Vec3) (k uint64) {
		for ax, v := range [3]uint64{uint64(p.X / (rmax / 2)), uint64(p.Y / (rmax / 2)), uint64(p.Z / (rmax / 2))} {
			for bit := 0; bit < 21; bit++ {
				k |= (v >> bit & 1) << (3*bit + ax)
			}
		}
		return k
	}
	sorted := slices.Clone(pts)
	slices.SortFunc(sorted, func(p, q geom.Vec3) int { return cmp.Compare(key(p), key(q)) })
	centers := sorted[len(sorted)/2:][:K]

	run := func(b *testing.B, query func(*kdtree.Tree[float32]) int) {
		tree := kdtree.Build[float32](pts, 0) // binds the lane bodies in effect
		neighbors := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			neighbors += query(tree)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(neighbors), "ns/nbr")
		b.ReportMetric(float64(neighbors)/float64(b.N*K), "nbrs/query")
	}
	var blk nbr.Block
	block := func(tree *kdtree.Tree[float32]) int {
		tree.QueryRadiusImagesBlock(centers, rmax, images, &blk)
		return len(blk.IDs)
	}
	defer sphharm.SetLaneDispatch(sphharm.LaneDispatch() == "avx512")
	b.Run("lanes", func(b *testing.B) {
		if !sphharm.SetLaneDispatch(true) {
			b.Skip("no AVX-512 lane bodies on this host")
		}
		run(b, block)
	})
	b.Run("portable", func(b *testing.B) {
		sphharm.SetLaneDispatch(false)
		run(b, block)
	})
	b.Run("per-primary", func(b *testing.B) {
		buf := make([]int32, 0, 1<<12)
		run(b, func(tree *kdtree.Tree[float32]) int {
			buf = buf[:0]
			for _, c := range centers {
				buf = tree.QueryRadiusImages(c, rmax, images, buf)
			}
			return len(buf)
		})
	})
}

// BenchmarkTable1 measures construction of a density-matched weak-scaling
// dataset (Table 1's procedure).
func BenchmarkTable1(b *testing.B) {
	row := catalog.ScaledTable1Row(4, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat := catalog.GenerateTable1Dataset(row, int64(i))
		if cat.Len() == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkFigure4Breakdown runs the instrumented single-node pipeline that
// produces the Fig. 4 runtime breakdown.
func BenchmarkFigure4Breakdown(b *testing.B) {
	cat := benchCatalog(4000, 1)
	cfg := benchConfig(12)
	b.ResetTimer()
	var pairs uint64
	for i := 0; i < b.N; i++ {
		res := compute(b, cat, cfg)
		pairs = res.Pairs
	}
	b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
}

// BenchmarkFigure5Threads sweeps worker counts (thread scaling, Fig. 5).
func BenchmarkFigure5Threads(b *testing.B) {
	cat := benchCatalog(3000, 2)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := benchConfig(12)
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				compute(b, cat, cfg)
			}
		})
	}
}

// BenchmarkFigure6Weak runs the k-d decomposition at fixed work per rank
// (weak scaling, Fig. 6); the reported metric is the simulated cluster
// time, i.e. the slowest rank.
func BenchmarkFigure6Weak(b *testing.B) {
	for _, ranks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg := benchConfig(8)
			cfg.NBins = 8
			for i := 0; i < b.N; i++ {
				pts, err := sim.WeakScaling([]int{ranks}, 1500, cfg, 3)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pts[0].NodeTime.Seconds(), "node-s")
			}
		})
	}
}

// BenchmarkFigure7Strong runs the k-d decomposition at fixed total work
// (strong scaling, Fig. 7).
func BenchmarkFigure7Strong(b *testing.B) {
	cat := benchCatalog(6000, 4)
	for _, ranks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg := benchConfig(10)
			cfg.NBins = 8
			for i := 0; i < b.N; i++ {
				pts, err := sim.StrongScaling([]int{ranks}, cat, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pts[0].NodeTime.Seconds(), "node-s")
			}
		})
	}
}

// BenchmarkSection51SingleNode measures the end-to-end single-node rate
// whose paper analogue is 1017 GF/s / 39% of peak (Sec. 5.1).
func BenchmarkSection51SingleNode(b *testing.B) {
	cat := benchCatalog(6000, 5)
	cfg := benchConfig(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := compute(b, cat, cfg)
		b.ReportMetric(res.FlopsEstimate()/b.Elapsed().Seconds()*float64(i+1)/float64(b.N)/1e9, "modelGF/s")
	}
}

// BenchmarkFigure1BAOMap regenerates the zeta_l(r1, r2) coefficient map of
// Fig. 1 (right) on a BAO-shell mock.
func BenchmarkFigure1BAOMap(b *testing.B) {
	cat := catalog.BAOShells(4000, 420, catalog.DefaultBAOParams(), 7)
	cfg := galactos.DefaultConfig()
	cfg.RMax = 130
	cfg.NBins = 13
	cfg.LMax = 2
	cfg.IsotropicOnly = true
	cfg.SelfCount = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compute(b, cat, cfg)
	}
}

// BenchmarkSE15Isotropic measures the isotropic-only baseline mode
// (Sec. 2.2/2.3) against BenchmarkFigure4Breakdown's full mode.
func BenchmarkSE15Isotropic(b *testing.B) {
	cat := benchCatalog(4000, 8)
	cfg := benchConfig(12)
	cfg.IsotropicOnly = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compute(b, cat, cfg)
	}
}

// BenchmarkBruteForce anchors the O(N^3) baseline the multipole algorithm
// replaces (Sec. 2.1).
func BenchmarkBruteForce(b *testing.B) {
	cfg := galactos.DefaultConfig()
	cfg.RMax = 50
	cfg.NBins = 5
	cfg.LMax = 4
	for _, n := range []int{100, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cat := catalog.Clustered(n, 160, catalog.DefaultClusterParams(), int64(n))
			for i := 0; i < b.N; i++ {
				if _, err := bruteforce.Aniso(cat, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBucketSize is the k = 128 ablation (Sec. 3.3.2).
func BenchmarkBucketSize(b *testing.B) {
	cat := benchCatalog(4000, 9)
	for _, k := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			cfg := benchConfig(12)
			cfg.BucketSize = k
			for i := 0; i < b.N; i++ {
				compute(b, cat, cfg)
			}
		})
	}
}

// BenchmarkSharded measures the sharded out-of-core pipeline against the
// single-shot engine on the same catalog (the `sharded` experiment;
// sharding pays a halo-overlap tax in exchange for a bounded footprint).
func BenchmarkSharded(b *testing.B) {
	cat := benchCatalog(5000, 14)
	cfg := benchConfig(12)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compute(b, cat, cfg)
		}
	})
	for _, nshards := range []int{4, 8} {
		b.Run(fmt.Sprintf("shards=%d", nshards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, galactos.Request{Catalog: cat, Config: cfg,
					Backend: galactos.BackendSpec{Name: "sharded", Shards: nshards}})
			}
		})
	}
}

// BenchmarkSelfCount measures the cost of the exact self-pair correction.
func BenchmarkSelfCount(b *testing.B) {
	cat := benchCatalog(2500, 12)
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("selfcount=%v", on), func(b *testing.B) {
			cfg := benchConfig(10)
			cfg.SelfCount = on
			for i := 0; i < b.N; i++ {
				compute(b, cat, cfg)
			}
		})
	}
}

// BenchmarkTwoPCF anchors the 2-point substrate (the Chhugani et al.
// comparison axis of Sec. 2.3).
func BenchmarkTwoPCF(b *testing.B) {
	cat := benchCatalog(20000, 13)
	cfg := galactos.TwoPCFConfig{RMax: 15, NBins: 15, LMax: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc, err := galactos.TwoPCF(cat, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pc.NPairs)/b.Elapsed().Seconds()*float64(i+1)/float64(b.N)/1e6, "Mpairs/s")
	}
}

var codecSink int

// BenchmarkResultCodec measures the resultio block codec at the two result
// sizes the repository benchmark's workloads produce: 458 KB (LMax 10, 10
// bins: aniso_box, service_mix) and 20 KB (LMax 4, 6 bins: stream_sharded's
// shard checkpoints). verify is what a cache hit pays instead of decode.
func BenchmarkResultCodec(b *testing.B) {
	for _, shape := range []struct{ lmax, nbins int }{{10, 10}, {4, 6}} {
		bins, err := hist.NewBinning(0, 15, shape.nbins)
		if err != nil {
			b.Fatal(err)
		}
		res := core.NewResult(shape.lmax, bins)
		rng := rand.New(rand.NewSource(1))
		for i := range res.Aniso {
			res.Aniso[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		var enc bytes.Buffer
		if err := core.WriteResult(&enc, res); err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("%dKB", enc.Len()/1000)
		b.Run(name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(enc.Len()))
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := core.WriteResult(&buf, res); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(enc.Len()))
			for i := 0; i < b.N; i++ {
				got, err := core.ReadResult(bytes.NewReader(enc.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				codecSink += len(got.Aniso)
			}
		})
		b.Run(name+"/verify", func(b *testing.B) {
			b.SetBytes(int64(enc.Len()))
			for i := 0; i < b.N; i++ {
				if err := core.VerifyResult(enc.Bytes()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCatalogHash measures the content hash that keys every service
// request, at the catalog sizes of the repository benchmark (service_mix
// 500, aniso_box 2600, stream_sharded 24000 galaxies), from memory and from
// a binary file. At 16 KB the number is the fixed cost of a pass, not
// SHA-256.
func BenchmarkCatalogHash(b *testing.B) {
	dir := b.TempDir()
	for _, n := range []int{500, 2600, 24000} {
		cat := benchCatalog(n, 3)
		path := filepath.Join(dir, fmt.Sprintf("cat-%d.glxc", n))
		if err := catalog.SaveBinary(path, cat); err != nil {
			b.Fatal(err)
		}
		for _, src := range []struct {
			name string
			src  catalog.Source
		}{{"memory", catalog.NewMemorySource(cat)}, {"file", catalog.NewFileSource(path)}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, src.name), func(b *testing.B) {
				b.SetBytes(int64(n * catalog.RecordSize))
				for i := 0; i < b.N; i++ {
					h, err := catalog.Hash(src.src)
					if err != nil {
						b.Fatal(err)
					}
					codecSink += len(h)
				}
			})
		}
	}
}
