// Layer benchmarks: each one times a single layer of the engine or its
// storage at the shapes the repository benchmark's workloads hand it, and
// each names what it adds, either a row of DESIGN.md's experiment index or
// a reading that no bench/ probe takes. The paper's tables and figures are
// regenerated once, by `go run ./cmd/galactos-bench`, which tier-1 runs at
// -scale small; end-to-end performance is gated by bench/run.sh. Run them
// with `go test -run '^$' -bench . .`.
package galactos_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"galactos"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
	"galactos/internal/hist"
	"galactos/internal/kdtree"
	"galactos/internal/nbr"
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

// BenchmarkKernelTile measures the multipole kernel alone (Sec. 3.3.2; the
// paper reaches 1017 GF/s = 39% of Xeon Phi peak on its 286-monomial form) —
// the (l+1)^2-sum ladder over hoisted z powers, one lane call per chunk
// (the z-power hoist inside it), AVX-512 lane bodies where available — at
// the chunk lengths the engine hands it: 8, 22, 73 are
// the mean pairs per kernel chunk on stream_sharded, iso_survey and
// aniso_box (EXPERIMENTS.md "Layer: block commit + chunk dispatch"), 128 is
// one full chunk, and 1024 (eight chunks) is the bench's
// sphharm.tile_ns_per_pair probe shape. ns/chunk at n <= 128 is the chunk's
// fixed cost plus n pairs of streaming work. The portable/ rows bind the
// pure-Go bodies: the same bits, at what arm64 and amd64 hosts without
// AVX-512 pay. The cap= rows are the Sec. 3.3.2 bucket-size ablation: the
// 1024-pair tile through kernels of capacity 8 to 512 (the engine's is 128).
// Experiment index: Sec. 5.1 and the Sec. 3.3.2 bucket ablation; bench/'s
// tile probe reads only the 1024-pair shape on the dispatch in effect.
func BenchmarkKernelTile(b *testing.B) {
	mono := sphharm.NewMonomialTable(10)
	defer sphharm.SetLaneDispatch(sphharm.LaneDispatch() == "avx512")
	type shape struct {
		name     string
		n, cap   int
		portable bool
	}
	var shapes []shape
	for _, portable := range []bool{false, true} {
		prefix := ""
		if portable {
			prefix = "portable/"
		}
		for _, n := range []int{8, 22, 73, 128, 1024} {
			shapes = append(shapes, shape{fmt.Sprintf("%sn=%d", prefix, n), n, 128, portable})
		}
	}
	for _, c := range []int{8, 32, 128, 512} {
		shapes = append(shapes, shape{fmt.Sprintf("cap=%d", c), 1024, c, false})
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			sphharm.SetLaneDispatch(!sh.portable)
			k := sphharm.NewKernel(mono, sh.cap)
			n := sh.n
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
			chunks := float64((n + sh.cap - 1) / sh.cap)
			b.ReportMetric(ns/chunks, "ns/chunk")
			b.ReportMetric(ns/float64(n), "ns/pair")
			b.ReportMetric(float64(n)*float64(sphharm.FlopsPerPair(10))/ns, "GFLOP/s")
		})
	}
}

// BenchmarkSelfMoments measures the self-pair layer alone: the Legendre
// moments sum_j w_j^2 P_L(mu_j), L <= 2 lmax, of one tile — all the
// SelfCount correction costs per pair. The tile length is iso_survey's
// typical (primary, bin) tile, so the four-pair body and the tail both run.
// bench/ gap: iso_survey reports only the self-count share of its run.
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

// BenchmarkAlmZeta isolates the engine's alm+zeta phase at
// commit-unit granularity, the way engine.processBlock runs it: per primary
// one ReduceBins over all bins and one AlmBinsPacked conversion straight
// into the slabs (untouched bins zero-padded), then per channel the tile clear, one
// fused ZetaBatch call folding the whole unit into the tile, and the commit
// into the partial result. "dense" is the all-bins-touched 32-primary unit
// at 10 bins, l_max 10; "aniso_box" is the occupancy measured on that
// workload (seed 2: mean K 21, 37 % of primaries missing one inner bin);
// "k=2" is what a unit was on stream_sharded while a unit was one cell (mean
// K 1.6) — the per-unit tile traffic of 286 channels spread over two
// primaries, the cost coalescing cells into units amortises; and
// "stream_sharded" is that workload's shape now (6 bins, l_max 4, a
// 32-primary unit). zeta_gflops times stage 3 alone at 8 nb^2 K flops per
// ZetaBatch call: the zeta kernel's distance from the FMA peak (two 512-bit
// FMAs a cycle, ~67 GF/s on the 2-vCPU benchmark host). bench/ gap: its
// zeta probe reports ns per update at the workloads' shapes, not a flop
// rate, and never the dense or k=2 units.
func BenchmarkAlmZeta(b *testing.B) {
	b.Run("dense", func(b *testing.B) { benchAlmZeta(b, 10, 10, 32, 0) })
	b.Run("aniso_box", func(b *testing.B) { benchAlmZeta(b, 10, 10, 21, 0.37) })
	b.Run("k=2", func(b *testing.B) { benchAlmZeta(b, 10, 10, 2, 0) })
	b.Run("stream_sharded", func(b *testing.B) { benchAlmZeta(b, 4, 6, 32, 0) })
}

// benchAlmZeta runs one K-primary unit's stage 2 reduction, stage 3 zeta and
// commit per iteration at order lmax over nb bins; missFrac of the primaries
// leave one of the three innermost bins untouched.
func benchAlmZeta(b *testing.B, lmax, nb, K int, missFrac float64) {
	mono := sphharm.NewMonomialTable(lmax)
	ytab := sphharm.NewYlmTable(lmax, mono)
	combos := core.NewComboTable(lmax)
	pc := sphharm.PairCount(lmax)

	rng := rand.New(rand.NewSource(42))
	acc := make([]float64, nb*sphharm.AccumulatorLen(mono))
	for i := range acc {
		acc[i] = rng.NormFloat64()
	}
	missing := make([]int, K) // the bin primary a did not touch, -1 for none
	for a := range missing {
		missing[a] = -1
		if rng.Float64() < missFrac {
			missing[a] = rng.Intn(3)
		}
	}
	sums := make([]float64, mono.Len()*sphharm.BinStride(nb))
	cnt := make([]int32, nb)
	binW := make([]float64, nb)
	stride2 := K * 2 * nb
	aSlab := make([]float64, pc*stride2)
	wXY := make([]float64, pc*stride2)
	aniso := make([]complex128, combos.Len()*nb*nb)
	partial := make([]complex128, len(aniso))
	const pw = 1.25
	var zeta time.Duration

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := 0; a < K; a++ {
			for t := range cnt {
				cnt[t], binW[t] = 1, pw
			}
			if t := missing[a]; t >= 0 {
				cnt[t], binW[t] = 0, 0
			}
			sphharm.ReduceBins(acc, cnt, sums)
			ytab.AlmBinsPacked(sums, nb, binW, aSlab[a*2*nb:], wXY[a*2*nb:], stride2)
		}
		t0 := time.Now()
		for ci, c := range combos.Combos {
			i1 := sphharm.PairIndex(c.L1, c.M) * stride2
			i2 := sphharm.PairIndex(c.L2, c.M) * stride2
			tile := aniso[ci*nb*nb : (ci+1)*nb*nb]
			clear(tile)
			sphharm.ZetaBatch(tile, aSlab[i2:i2+stride2], wXY[i1:i1+stride2], nb, K)
		}
		zeta += time.Since(t0)
		for j, v := range aniso {
			partial[j] += v
		}
	}
	b.ReportMetric(float64(b.N)*float64(K)/b.Elapsed().Seconds()/1e3, "kprimaries/s")
	b.ReportMetric(8*float64(nb*nb*K*combos.Len())*float64(b.N)/float64(zeta.Nanoseconds()), "zeta_gflops")
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
// bench/ gap: each workload sits at one density, so none sweeps the pairs
// per primary between them.
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
// bench/ gap: its query probe times single-centre queries on the dispatch in
// effect, never the unit-level block query the engine issues.
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

// BenchmarkSelfCount measures the cost of the exact self-pair correction.
// bench/ gap: only iso_survey counts self pairs, and no workload runs the
// same catalog with the correction off.
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
// comparison axis of Sec. 2.3). bench/ gap: its workloads run twopcf.Count
// only as an untimed pair-count cross-check.
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
// bench/ gap: its codec probe reads one size per workload and never times
// verify.
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
// SHA-256. bench/ gap: its hash probe reads only a file source, at one
// workload's size.
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
