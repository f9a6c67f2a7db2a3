package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/faultpoint"
	"galactos/internal/geom"
	"galactos/internal/hist"
	"galactos/internal/kdtree"
	"galactos/internal/sphharm"
)

// fpWorkerBlock injects inside an engine worker goroutine, at the top of
// each commit unit: an error or panic here exercises the worker isolation path
// (the panic is recovered unit-locally, the commit clock still advances,
// and the run fails with a stack-carrying error instead of crashing the
// process), a delay perturbs scheduling without changing the result.
var fpWorkerBlock = faultpoint.New("core.worker.block")

// The engine's execution shape, with the Morton cell side RMax/2. Each sets
// how floating-point sums group, so none is a knob: fixed, they leave the
// answer a function of the catalog and the science config alone (see
// Config.Fingerprint).
const (
	// kernelChunk is the tile kernel's chunk capacity: a bin-sorted pair tile
	// is consumed in chunks of this many pairs, so the kernel scratch stays
	// cache-resident — the paper's bucket size, k = 128 (Sec. 3.3.2).
	kernelChunk = 128
	// commitUnitCap caps a grid cell's run of primaries; commit units close
	// before passing half of it (see buildBlocks).
	commitUnitCap = 64
)

// NeighborFinder is the substrate abstraction: anything that can return all
// point indices within a radius of any of a set of image centers. The
// engine builds exactly one, a float32 kdtree.Tree (buildFinder); the
// float64 tree and grid.Grid satisfy it too, for the bench probes and the
// finder tests that compare substrates. It gathers through one
// block-granular QueryRadiusImagesBlock call per commit unit, which must
// return, for every center, a neighbor list bitwise-identical in content
// and order to the center's own QueryRadiusImages call — the blocked and
// per-primary traversals are interchangeable, and the finder and engine
// property tests pin that.
type NeighborFinder interface {
	QueryRadiusImages(center geom.Vec3, r float64, images []geom.Vec3, out []int32) []int32
	QueryRadiusImagesBlock(centers []geom.Vec3, r float64, images []geom.Vec3, blk *kdtree.Block)
}

// Compute runs the full anisotropic 3PCF computation over a catalog. All
// galaxies are primaries. This is the single-node entry point (Algorithm 1).
func Compute(cat *catalog.Catalog, cfg Config) (*Result, error) {
	return ComputeContext(context.Background(), cat, cfg)
}

// ComputeContext is Compute under a context: cancelling ctx makes the
// worker loop stop at the next commit unit and return ctx.Err(). It is
// Prepare, with every galaxy a primary, followed by Run.
func ComputeContext(ctx context.Context, cat *catalog.Catalog, cfg Config) (*Result, error) {
	e, err := Prepare(ctx, cat, nil, cfg)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// Prepare does a run's setup: it checks the configuration and the primary
// mask, copies the catalog's positions and weights, and builds the
// neighbour index, the tables and the commit units. The run treats only the
// galaxies with primary[i] == true as primaries; all galaxies act as
// secondaries. A nil mask means every galaxy is a primary. This is how the
// sharded pipeline excludes halo copies ("ignoring secondary galaxies that
// are in the k-d tree because of halo exchange", Sec. 3.3). The returned
// engine holds no reference to cat, and Run computes on it under ctx, as
// ComputeContext does. Splitting the two lets a caller build one engine
// while another runs: the sharded backend prepares its next part while the
// current one computes.
func Prepare(ctx context.Context, cat *catalog.Catalog, primary []bool, cfg Config) (*Engine, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if primary != nil && len(primary) != cat.Len() {
		return nil, fmt.Errorf("core: primary mask length %d != catalog length %d", len(primary), cat.Len())
	}
	bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
	if err != nil {
		return nil, err
	}

	e := newEngine(ctx, cat, primary, cfg, bins)
	start := time.Now()
	if err := e.buildFinder(); err != nil {
		return nil, err
	}
	e.buildBlocks()
	e.treeBuild = time.Since(start)
	return e, nil
}

// newEngine binds a normalized configuration and its binning to a catalog;
// buildFinder and buildBlocks complete the engine.
func newEngine(ctx context.Context, cat *catalog.Catalog, primary []bool, cfg Config, bins hist.Binning) *Engine {
	e := &Engine{
		ctx:     ctx,
		cfg:     cfg,
		bins:    bins,
		unitCap: commitUnitCap,
		cell:    cfg.RMax / 2,
		shell: sphharm.PairShell{
			Box: cat.Box, RMin: bins.RMin, RMax: bins.RMax,
			InvW: bins.InvWidth(), NBins: int32(bins.N),
		},
		pts:        cat.Positions(),
		ws:         cat.Weights(),
		primaryIdx: primaryIndices(primary, cat.Len()),
	}
	e.clock.cond.L = &e.clock.mu
	return e
}

func primaryIndices(mask []bool, n int) []int32 {
	if mask == nil {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		return idx
	}
	var idx []int32
	for i, p := range mask {
		if p {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// blockRange is a half-open range [lo, hi) of primaryIdx: one commit unit, a
// run of Morton-adjacent primaries built by buildBlocks. The unit is the
// engine's one granularity — what a worker claims, gathers through one
// finder query, folds through one rank-K zeta update per channel, and
// commits.
type blockRange struct{ lo, hi int32 }

// Engine is one prepared run (see Prepare): a configuration bound to a
// catalog's positions and weights, with its neighbour index, tables and
// commit units built. Run computes it once.
type Engine struct {
	ctx  context.Context
	cfg  Config
	bins hist.Binning
	// shell is the catalog's box and the bins as the assembly's pair sweep
	// takes them, the inverse bin width hoisted: bin = (r - RMin) * InvW.
	shell sphharm.PairShell
	pts   []geom.Vec3
	ws    []float64
	// primaryIdx holds the primaries in cell-sorted (Morton) order; blocks
	// index contiguous runs of it.
	primaryIdx []int32
	blocks     []blockRange
	// unitCap and cell shape the commit units: newEngine sets them to
	// commitUnitCap and RMax/2, and only in-package tests that want many
	// small units set other values before buildBlocks.
	unitCap int32
	cell    float64

	finder NeighborFinder
	// qr is the radius the finder is queried at: RMax widened by the float32
	// rounding bound (see buildFinder), so the gather is a superset of the
	// pairs and PairColumns' float64 RMin <= r < RMax alone decides them.
	qr float64
	// images holds the 27 periodic image offsets on a periodic box, a single
	// zero offset on an open one.
	images []geom.Vec3
	// nhat caches the unit observer→galaxy direction of every point
	// (LOSMidpoint only): precomputing it once per run removes two
	// normalizations from the pair loop.
	nhat []geom.Vec3

	mono     *sphharm.MonomialTable
	ytab     *sphharm.YlmTable
	combos   *ComboTable
	channels []zetaChannel
	pc       int // sphharm.PairCount(LMax)

	next  atomic.Int64 // next unit to hand out
	clock commitClock  // next unit to commit

	// failed flags a worker panic/fault so the other workers stop claiming
	// units at their next per-unit check instead of finishing a doomed run.
	failed atomic.Bool

	// treeBuild is Prepare's index and unit build time, which Run reports as
	// Timings.TreeBuild.
	treeBuild time.Duration
}

// zetaChannel caches one canonical channel's constants for the unit-level
// outer-product sweep: the flattened Aniso base offset, the (m >= 0) pair
// indices of the two a_lm legs, and (SelfCount only) the Legendre series of
// Y_l1m conj(Y_l2m) that turns the unit's self-pair moments into the
// channel's diagonal correction. Channels excluded by IsotropicOnly are
// filtered out at build time so the hot loop carries no per-channel mode
// branch.
type zetaChannel struct {
	base   int
	i1, i2 int32
	self   []sphharm.LegendreTerm
}

// buildFinder builds the run's one neighbour index — a float32 k-d tree, the
// paper's single-precision search (Sec. 5.1) — its query radius, and the
// tables every unit shares.
//
// The tree only proposes candidates: PairColumns recomputes each pair's
// separation in float64 and keeps RMin <= r < RMax, so the tree must return
// every pair that test keeps. It is queried at qr = RMax + s, s = (RMax +
// 2M)·2⁻²⁰, M = max(|coordinate|, L). With u = 2⁻²⁴ the float32 rounding
// unit: a stored point (|x| <= M) and a shifted image centre (|x| <= M + L
// <= 2M) each round once, so a pair's float32 difference is off by at most
// 3uM per axis, under 6uM in norm. The subtraction, squares and adds round
// at most five more times, under 3u of the distance, and r² = fl(fl(qr)²)
// loses at most 1.5u of qr. A pair kept by the float64 test (exact
// separation below RMax + 2⁻⁵⁰M) therefore tests at most (RMax + 6uM)(1 +
// 3u), below qr(1 - 1.5u) ~ RMax + 14.5u·RMax + 32uM by a factor of four in
// each term. The box prunes run the same monotone arithmetic against the
// same r², so they never drop a point the point test keeps (RMax is assumed
// inside float32's normal range). On a periodic box a point must also never
// pass for two images L apart, which RMax + 2s < L/2 rules out.
func (e *Engine) buildFinder() error {
	if err := catalog.CheckBox(e.shell.Box); err != nil {
		return err
	}
	l := e.shell.Box.L
	m := l
	for _, p := range e.pts {
		m = max(m, math.Abs(p.X), math.Abs(p.Y), math.Abs(p.Z))
	}
	s := float64((e.cfg.RMax + 2*m) * 0x1p-20)
	if l > 0 && e.cfg.RMax+float64(2*s) >= l/2 {
		return fmt.Errorf("core: RMax %v must be below half the periodic box %v (less %.2g of float32 search slack)", e.cfg.RMax, l, 2*s)
	}
	e.qr = e.cfg.RMax + s
	e.finder = kdtree.Build[float32](e.pts, kdtree.DefaultLeafSize)
	e.images = e.shell.Box.Images(e.qr)
	if e.cfg.LOS == LOSMidpoint {
		e.nhat = make([]geom.Vec3, len(e.pts))
		for i, p := range e.pts {
			e.nhat[i] = p.Sub(e.cfg.Observer).Normalized()
		}
	}
	e.mono = sphharm.NewMonomialTable(e.cfg.LMax)
	e.ytab = sphharm.NewYlmTable(e.cfg.LMax, e.mono)
	e.combos = NewComboTable(e.cfg.LMax)
	e.pc = sphharm.PairCount(e.cfg.LMax)
	nb := e.bins.N
	for ci, c := range e.combos.Combos {
		if e.cfg.IsotropicOnly && c.L1 != c.L2 {
			continue
		}
		ch := zetaChannel{
			base: ci * nb * nb,
			i1:   int32(sphharm.PairIndex(c.L1, c.M)),
			i2:   int32(sphharm.PairIndex(c.L2, c.M)),
		}
		if e.cfg.SelfCount {
			ch.self = sphharm.SelfProduct(c.L1, c.L2, c.M)
		}
		e.channels = append(e.channels, ch)
	}
	return nil
}

// buildBlocks sorts the primaries into grid cells of side e.cell (RMax/2),
// orders the cells along a Morton curve (so consecutive cells are spatial
// neighbors: a unit's bounding box stays a few cells wide and the finder's
// nodes stay cache-warm from one unit to the next), and cuts the sorted run
// into commit units on cell boundaries: a cell is one grid cell's run capped
// at e.unitCap (commitUnitCap) primaries, a unit closes before it would pass
// half that, a cell is never split, and a cell at or above that bound stands
// alone. The per-unit costs that do not scale with pairs — the tree walk of
// the gather, the accumulator clear, the channel tile traffic of the zeta
// update, the commit — are then paid once per ~unitCap/2 primaries however
// sparse the cells are, while the two unit slabs stay L2-resident beside the
// accumulator. The sort is stable and primaryIdx arrives in ascending index,
// so equal keys keep index order, and the units depend only on the catalog
// and RMax: the order — and therefore the floating-point accumulation order
// of every downstream sum — is fully deterministic.
func (e *Engine) buildBlocks() {
	n := len(e.primaryIdx)
	if n == 0 {
		return
	}
	ks := sortKeyed(e.cellKeys())
	for i, k := range ks {
		e.primaryIdx[i] = k.pi
	}
	bound := e.unitCap / 2
	first, lo := int32(0), int32(0) // first primary of the open unit and of the open cell
	for i := int32(1); i <= int32(n); i++ {
		if i < int32(n) && ks[i].key == ks[lo].key && i-lo < e.unitCap {
			continue
		}
		// [lo, i) is a cell: it joins the open unit unless that passes the bound.
		if lo > first && i-first > bound {
			e.blocks = append(e.blocks, blockRange{lo: first, hi: lo})
			first = lo
		}
		lo = i
	}
	e.blocks = append(e.blocks, blockRange{lo: first, hi: int32(n)})
}

// keyed is a primary beside its Morton cell key.
type keyed struct {
	key uint64
	pi  int32
}

// cellKeys returns every primary's Morton cell key, in primaryIdx order.
func (e *Engine) cellKeys() []keyed {
	inv := 1 / e.cell
	var org geom.Vec3 // periodic boxes anchor at the corner; open data at the min
	if e.shell.Box.L <= 0 {
		org = e.pts[e.primaryIdx[0]]
		for _, pi := range e.primaryIdx[1:] {
			p := e.pts[pi]
			org.X = math.Min(org.X, p.X)
			org.Y = math.Min(org.Y, p.Y)
			org.Z = math.Min(org.Z, p.Z)
		}
	}
	ks := make([]keyed, len(e.primaryIdx))
	for i, pi := range e.primaryIdx {
		p := e.pts[pi]
		ks[i] = keyed{
			key: morton3(cellCoord((p.X-org.X)*inv), cellCoord((p.Y-org.Y)*inv), cellCoord((p.Z-org.Z)*inv)),
			pi:  pi,
		}
	}
	return ks
}

// sortKeyed sorts ks by key, stably: an LSD radix sort with one counting
// pass per byte position, skipping the positions where every key holds the
// same byte (a run's keys span a few cells per axis, so most of the 8 bytes
// are constant). It returns the sorted slice, ks or its scratch twin.
func sortKeyed(ks []keyed) []keyed {
	var diff uint64
	for _, k := range ks {
		diff |= k.key ^ ks[0].key
	}
	var buf []keyed
	for shift := 0; diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		if buf == nil {
			buf = make([]keyed, len(ks))
		}
		var at [256]int32
		for _, k := range ks {
			at[byte(k.key>>shift)]++
		}
		o := int32(0)
		for d, c := range at {
			at[d], o = o, o+c
		}
		for _, k := range ks {
			d := byte(k.key >> shift)
			buf[at[d]] = k
			at[d]++
		}
		ks, buf = buf, ks
	}
	return ks
}

// cellCoord clamps a scaled coordinate into the 21-bit Morton range.
func cellCoord(v float64) uint32 {
	if v <= 0 {
		return 0
	}
	c := uint32(v)
	if c > 1<<21-1 {
		c = 1<<21 - 1
	}
	return c
}

// spread21 spaces the low 21 bits of v three apart.
func spread21(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

func morton3(x, y, z uint32) uint64 {
	return spread21(x) | spread21(y)<<1 | spread21(z)<<2
}

// commitClock is the run's one commit order: commit unit b adds into the
// result only after every unit before it has (see Run).
type commitClock struct {
	mu   sync.Mutex
	cond sync.Cond
	next int32 // next unit index allowed to commit
}

// acquire blocks until unit b is the next committer. The caller then owns
// the result until it calls release.
func (c *commitClock) acquire(b int32) {
	c.mu.Lock()
	for c.next != b {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// release marks unit b committed (or abandoned, on cancellation) and wakes
// its successor.
func (c *commitClock) release(b int32) {
	c.mu.Lock()
	c.next = b + 1
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Run executes the unit loop across workers into one result.
//
// Determinism contract: workers claim commit units (e.blocks — a function of
// the catalog and RMax only) from a shared counter for load
// balance, and each unit adds into the run's single Result in ascending unit
// index, gated by the commitClock. Every Aniso element therefore receives
// its per-unit contributions in one fixed order, whatever the worker count
// or interleaving: the result bits are those of a one-worker run. The worker
// count is clamped to the unit count, so a catalog that coalesces into fewer
// units than workers runs on fewer workers.
//
// Cancelling the engine context makes every worker stop at its next unit;
// Run then discards the result and reports ctx.Err().
func (e *Engine) Run() (*Result, error) {
	total := NewResult(e.cfg.LMax, e.bins)
	total.NGalaxies = len(e.pts)
	total.Timings.TreeBuild = e.treeBuild
	nB := len(e.blocks)
	if nB == 0 {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		return total, nil
	}
	nw := min(e.cfg.Workers, nB)
	states := make([]*workerState, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			states[w] = e.worker(total)
		}(w)
	}
	wg.Wait()
	for _, s := range states {
		if s != nil && s.err != nil {
			return nil, s.err
		}
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	for _, s := range states {
		total.Timings.Gather += s.tGather
		total.Timings.Consume += s.tConsume
		total.Timings.SelfCount += s.tSelf
		total.Timings.AlmZeta += s.tAlmZeta
		total.Timings.WorkerTotal += s.tWorker
	}
	return total, nil
}

// worker claims commit units from the shared counter and commits each into
// dst in unit order. Cancellation is checked once per unit: prompt (a unit
// is at most commitUnitCap primaries) without putting a context load on the
// pair loop.
//
// Panic isolation: each unit runs under safeProcessBlock, so a panic
// inside the pair/kernel pipeline is recovered block-locally and surfaces
// as the run's error with the offending stack — never a crashed process.
// The recovery preserves the commit order: a claimed unit still acquires
// and releases the clock (a dead worker must not strand the later
// committers), the failed block's accumulation is discarded uncommitted,
// and e.failed makes the remaining workers stop at their next block check.
func (e *Engine) worker(dst *Result) *workerState {
	s := e.newWorkerState()
	start := time.Now()
	for {
		b := e.next.Add(1) - 1
		if b >= int64(len(e.blocks)) {
			break
		}
		if e.ctx.Err() != nil || e.failed.Load() {
			// The claimed unit must still advance the clock, or the later
			// committers would wait forever.
			e.clock.acquire(int32(b))
			e.clock.release(int32(b))
			break
		}
		err := e.safeProcessBlock(s, int(b))
		e.clock.acquire(int32(b))
		if err == nil {
			e.commitInto(dst, s)
		}
		e.clock.release(int32(b))
		if err != nil {
			s.err = err
			e.failed.Store(true)
			break
		}
	}
	s.tWorker = time.Since(start)
	return s
}

// safeProcessBlock runs one commit unit with panic isolation: a recovered panic
// (an engine bug, or an injected core.worker.block fault) becomes an error
// carrying the panic value and stack.
func (e *Engine) safeProcessBlock(s *workerState, b int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: worker panic in block %d: %v\n%s", b, p, debug.Stack())
		}
	}()
	if err := fpWorkerBlock.Inject(); err != nil {
		return err
	}
	e.processBlock(s, b)
	return nil
}

// commitInto folds the worker's unit accumulators into the run's result.
// Only active channels are touched; IsotropicOnly leaves the rest zero and
// commits its real tiles with zero imaginary parts (the iso fast ladder
// never accumulates the imaginary components, which no isotropic consumer
// reads — IsoZeta and the estimator take real parts only). The commit is
// the tail of the zeta stage and is charged to its clock.
func (e *Engine) commitInto(dst *Result, s *workerState) {
	t0 := time.Now()
	nb2 := e.bins.N * e.bins.N
	if e.cfg.IsotropicOnly {
		for _, ch := range e.channels {
			dstc := dst.Aniso[ch.base : ch.base+nb2]
			for i, v := range s.blockIso[int(ch.i1)*nb2 : int(ch.i1)*nb2+nb2] {
				dstc[i] += complex(v, 0)
			}
		}
	} else {
		for _, ch := range e.channels {
			dstc := dst.Aniso[ch.base : ch.base+nb2]
			for i, v := range s.blockAniso[ch.base : ch.base+nb2] {
				dstc[i] += v
			}
		}
	}
	dst.Pairs += s.blockPairs
	dst.NPrimaries += s.blockNP
	dst.SumWeight += s.blockSumW
	s.tAlmZeta += time.Since(t0)
}

// phaseClock partitions a commit unit's time between the phase clocks at one
// clock read per boundary: time.Now once per unit, then at each boundary one
// monotonic time.Since of that base (about half the cost of a time.Now),
// the read that ends one phase starting the next.
type phaseClock struct {
	base time.Time
	at   time.Duration // the last boundary, since base
}

// charge adds the time since the last boundary to *d.
func (c *phaseClock) charge(d *time.Duration) {
	now := time.Since(c.base)
	*d += now - c.at
	c.at = now
}

// workerState carries one worker's scratch memory: the per-primary tile
// pipeline of the pair-tile engine plus the unit-level arenas (gathered
// neighbor lists, per-primary a_lm slabs, the unit's Aniso accumulator).
// Everything is allocated once per worker and reused across units — the
// steady-state unit loop performs no allocations (pinned by
// TestProcessBlockAllocFree).
type workerState struct {
	kern *sphharm.Kernel
	// Per-bin lane-striped power-sum accumulators: acc[b] is bin b's
	// slice of accs, which holds them end to end for sphharm.ReduceBins.
	// A primary's tile overwrites its bin's accumulator (Kernel.SumTile)
	// and the reduce reads only bins with pairs, so they are never cleared.
	acc  [][]float64
	accs []float64

	// err records the worker's terminal failure (a recovered unit panic or
	// injected fault); Run surfaces the first one after the pool drains.
	err error

	// Unit gather: query centers and the block query's result.
	centers []geom.Vec3
	nbr     kdtree.Block

	// Pair-tile scratch (per primary), sized by the longest neighbor list
	// seen. cols is the sweep's linear output, the surviving pairs in gather
	// order; the t* columns hold the same pairs bin-sorted into packed
	// segments (bin b's pairs at [end[b]-cnt[b], end[b]), in gather order
	// within the bin).
	cols           sphharm.PairCols
	frame          geom.Rotation // the primary's line-of-sight frame (LOSRadial)
	tx, ty, tz, tw []float64
	cnt            []int32   // per-bin pair counts for the current primary
	end            []int32   // per-bin segment ends in the t* columns
	tl             []int32   // touched bin ids, ascending (from the counts)
	sums           []float64 // one primary's reduced power sums, a row over bins per sum
	binW           []float64 // per-bin weighted-leg scale: pw on touched bins, else +0

	// Unit-level a_lm slabs, packed (re, im) pairs laid out [(l,m) slot i]
	// [unit-local primary a][bin] (slot-major, per-primary stride 2*nb,
	// slots slotStride apart): wXY
	// holds the primary-weight-scaled coefficients (the b1 leg of the zeta
	// outer product) and aSlab the unweighted ones (the a2 leg). Bins a
	// primary did not touch hold exact zeros, so every primary's row is a
	// full nb-bin vector and the zeta stage is a dense rank-K update: each
	// channel reads its two legs as contiguous streams over the unit's
	// primaries and folds them into one cache-hot nb x nb tile with a single
	// sphharm.ZetaBatch call, which derives the conjugate interleave
	// in-register.
	wXY, aSlab []float64
	blockPw    []float64
	blockAniso []complex128 // per-unit zeta accumulator (committed per unit)

	// IsotropicOnly fast-ladder arenas, replacing blockAniso/wXY: the
	// iso channels are in bijection with the pc (l, m) slots, their zeta
	// tiles are real (downstream consumers read only the real parts), and
	// the primary-weight scaling folds into the zeta primitive — so the iso
	// path carries a pc*nb*nb float64 accumulator instead of a 286-channel
	// complex one, fills one slab instead of two, and never materializes the
	// channels IsotropicOnly filters out. aSlab switches to split re/im
	// halves per (slot, primary) in this mode (see processBlock).
	blockIso []float64 // per-unit real zeta accumulator, indexed by (l,m) slot

	// Self-pair correction (SelfCount only): selfW is the unit's [bin][L]
	// array of primary-weighted Legendre moments sum_a pw_a sum_j w_j^2
	// P_L(mu_j), L <= 2 LMax, from which stage 3 derives every channel's
	// diagonal self term (see sphharm.SelfProduct); selfMom is one
	// primary's [touched tile][L] moment scratch, and selfEnds its touched
	// tiles' segment ends.
	selfW, selfMom []float64
	selfEnds       []int32

	blockPairs uint64
	blockNP    int
	blockSumW  float64

	tGather, tConsume, tSelf, tAlmZeta, tWorker time.Duration
}

func (e *Engine) newWorkerState() *workerState {
	nb := e.bins.N
	pc := e.pc
	// The unit arenas hold the largest unit of this run, not unitCap:
	// buildBlocks closes a unit before it passes unitCap/2 unless a single
	// cell exceeds that, so sizing by the cap zeroes twice the memory any
	// unit touches. The slabs take the widest slot stride of any unit.
	K, stride2 := 0, 0
	for _, b := range e.blocks {
		k := int(b.hi - b.lo)
		K, stride2 = max(K, k), max(stride2, slotStride(k, nb))
	}
	s := &workerState{
		kern:    sphharm.NewKernel(e.mono, kernelChunk),
		acc:     make([][]float64, nb),
		centers: make([]geom.Vec3, K),
		cnt:     make([]int32, nb),
		end:     make([]int32, nb),
		tl:      make([]int32, 0, nb),
		sums:    make([]float64, e.mono.Len()*sphharm.BinStride(nb)),
		aSlab:   make([]float64, pc*stride2),
		blockPw: make([]float64, K),
	}
	if e.cfg.IsotropicOnly {
		s.blockIso = make([]float64, pc*nb*nb)
	} else {
		s.wXY = make([]float64, pc*stride2)
		s.binW = make([]float64, nb)
		s.blockAniso = make([]complex128, e.combos.Len()*nb*nb)
	}
	al := sphharm.AccumulatorLen(e.mono)
	s.accs = make([]float64, nb*al)
	for b := 0; b < nb; b++ {
		s.acc[b] = s.accs[b*al : (b+1)*al : (b+1)*al]
	}
	if e.cfg.SelfCount {
		nL := 2*e.cfg.LMax + 1
		s.selfW = make([]float64, nb*nL)
		s.selfMom = make([]float64, nb*nL)
		s.selfEnds = make([]int32, 0, nb)
	}
	return s
}

// slotStride is the spacing, in float64s, of the unit slabs' (l, m) slots
// for a unit of K primaries: K rows of 2*nb, widened by one cache line when
// that is a multiple of 4 KB. At such a spacing a primary's row of every
// slot falls on the same L1 sets, so AlmBins' stores down the slots and the
// zeta stage's paired streams evict each other; the line breaks the
// alignment and moves no result bit (only where the rows lie changes). It
// widens when K·nb is a multiple of 256: a full 64-primary unit at nb 4, 8,
// 12, 16 and 20 (DefaultConfig's bin count), never a unit at nb 6 or 10.
func slotStride(K, nb int) int {
	s := K * 2 * nb
	if s*8%4096 == 0 {
		s += 8
	}
	return s
}

// processBlock runs Algorithm 1's inner loop for one commit unit. Stage 1
// gathers every primary's neighbor list through one finder query for the
// whole unit. Stage 2 runs per primary: its tiles are assembled, consumed by
// the multipole kernel and reduced into the unit's a_lm slabs. Stage 3 then
// accumulates the zeta outer products channel-major over the whole unit, so
// each channel's nb x nb tile is cleared, updated and later committed once
// per unit, and with SelfCount subtracts each channel's diagonal self term
// from the unit's Legendre-moment array. The result lands in s.blockAniso
// (s.blockIso) for the caller to commit.
func (e *Engine) processBlock(s *workerState, b int) {
	prim := e.primaryIdx[e.blocks[b].lo:e.blocks[b].hi]
	K := len(prim)
	nb := e.bins.N
	s.blockPairs, s.blockNP, s.blockSumW = 0, K, 0

	// Stage 1: gather all neighbor lists for the unit.
	clk := phaseClock{base: time.Now()}
	e.gather(s, prim)
	clk.charge(&s.tGather)

	// Stage 2: per primary, assemble + consume tiles and reduce into the
	// unit's a_lm slabs.
	stride2 := slotStride(K, nb)
	for a, pi := range prim {
		pw := e.ws[pi]
		n := e.assembleTiles(s, pi, s.nbr.List(a))
		for _, bb := range s.tl {
			beg, end := s.tile(bb)
			s.kern.SumTile(s.tx[beg:end], s.ty[beg:end], s.tz[beg:end], s.tw[beg:end], s.acc[bb])
		}
		clk.charge(&s.tConsume)
		if s.selfW != nil {
			s.accumulateSelfPairs(pw, n)
			clk.charge(&s.tSelf)
		}
		s.blockPairs += uint64(n)

		// Reduce the lane accumulators of every bin at once, convert them to
		// a_lm rows over bins, and store those straight into the unit slabs.
		// Slab layout is [slot][unit-local primary][bin] (slot-major,
		// per-primary stride 2*nb, slots stride2 apart: packed to this unit's
		// K so the rows stay as compact as the unit, see slotStride), so the
		// zeta stage reads each leg as one contiguous stream per channel. A
		// primary that missed a bin gets exact zeros there: the reduce reads
		// the bin as +0 (its count is zero; the accumulator holds an earlier
		// primary's sums), so are the a_lm the conversion makes of it, and
		// the weighted leg scales it by +0, not pw. Zero-padding is
		// value-exact — a zeta element that starts at +0 and only gains
		// finite products is unchanged by the extra `+ x*0` terms.
		sphharm.ReduceBins(s.accs, s.cnt, s.sums)
		row := a * 2 * nb
		if e.cfg.IsotropicOnly {
			// Iso slab layout: split re/im halves per (slot, primary) — re
			// at [o, o+nb), im at [o+nb, o+2nb), same per-primary stride —
			// so the iso zeta primitive streams each half contiguously with
			// no deinterleave, and the weighted leg (wXY) is never built:
			// the primary weight folds into the primitive instead.
			e.ytab.AlmBins(s.sums, nb, s.aSlab[row:], stride2)
		} else {
			for _, bb := range s.tl {
				s.binW[bb] = pw
			}
			e.ytab.AlmBinsPacked(s.sums, nb, s.binW, s.aSlab[row:], s.wXY[row:], stride2)
			for _, bb := range s.tl {
				s.binW[bb] = 0
			}
		}
		// Reset per-primary state (touched bins only, so sparse primaries
		// stay cheap and untouched bins are never written).
		for _, bb := range s.tl {
			s.cnt[bb] = 0
		}
		s.blockPw[a] = pw
		s.blockSumW += pw
		clk.charge(&s.tAlmZeta)
	}

	// Stage 3: zeta outer products, one dense rank-K update per channel: the
	// whole unit folds into the channel's freshly cleared nb x nb tile in a
	// single fused call, so the tile stays cache-hot across all K primaries.
	// Per Aniso element the additions run in ascending unit-local primary
	// order — exactly the order a per-primary engine produces.
	if e.cfg.IsotropicOnly {
		e.zetaIsoBlock(s, K)
		clk.charge(&s.tAlmZeta)
		return
	}
	rows := K * 2 * nb
	for _, ch := range e.channels {
		dst := s.blockAniso[ch.base : ch.base+nb*nb]
		clear(dst)
		base1 := int(ch.i1) * stride2
		base2 := int(ch.i2) * stride2
		sphharm.ZetaBatch(dst, s.aSlab[base2:base2+rows], s.wXY[base1:base1+rows], nb, K)
		if ch.self != nil {
			for bb := 0; bb < nb; bb++ {
				dst[bb*nb+bb] -= complex(s.selfTerm(ch.self, bb), 0)
			}
		}
	}
	clear(s.selfW)
	clk.charge(&s.tAlmZeta)
}

// gather is processBlock's stage 1: every candidate list of the unit through
// one finder query at the conservative radius qr, and the pair-tile scratch
// sized to the longest of them.
func (e *Engine) gather(s *workerState, prim []int32) {
	centers := s.centers[:len(prim)]
	for i, pi := range prim {
		centers[i] = e.pts[pi]
	}
	e.finder.QueryRadiusImagesBlock(centers, e.qr, e.images, &s.nbr)
	if m := s.nbr.MaxLen(); m > len(s.tx) {
		s.growTiles(m, e.cfg.LOS == LOSMidpoint)
	}
}

// zetaIsoBlock is processBlock's stage 3 for IsotropicOnly: the zeta outer
// products over the compacted real ladder. Each iso channel (l, l, m) maps
// one-to-one onto an (l, m) slot, its tile update is real —
//
//	dst[b1*nb+b2] += (pw*re[b1])*re[b2] + (pw*im[b1])*im[b2]
//
// — and the slabs carry split re/im halves (see the stage-2 fill), so a
// whole unit folds through one sphharm.ZetaBatchIso call per channel at
// half the flops and half the tile traffic of the complex path. The loop
// structure (channel-major, ascending local-primary order) mirrors the
// anisotropic stage exactly, so the blocked and per-primary gathers
// stay bitwise interchangeable.
func (e *Engine) zetaIsoBlock(s *workerState, K int) {
	nb := e.bins.N
	nb2 := nb * nb
	stride2 := slotStride(K, nb)
	for _, ch := range e.channels {
		slot := int(ch.i1)
		dst := s.blockIso[slot*nb2 : slot*nb2+nb2]
		clear(dst)
		sphharm.ZetaBatchIso(dst, s.aSlab[slot*stride2:][:K*2*nb], s.blockPw[:K], nb, K)
		if ch.self != nil {
			for bb := 0; bb < nb; bb++ {
				dst[bb*nb+bb] -= s.selfTerm(ch.self, bb)
			}
		}
	}
	clear(s.selfW)
}

// assembleTiles builds one primary's bin-sorted SoA pair tiles from its
// gathered neighbor list and returns the pair count, in two passes. Pass 1
// (sphharm.PairColumns, a lane primitive) sweeps the whole list once:
// minimal-image separation, norm, radial bin (hoisted inverse width —
// identical binning to hist.Binning.Index), range mask, the rotation to the
// line of sight (Fig. 2) under a radial LOS, and the survivors compacted to
// linear columns in gather order. The rotation is element-wise, so it
// commutes with the sort, and exact after normalization since it preserves
// the norm. Pass 2 is a counting sort by bin into packed segments; the
// touched-bin list falls out of the counts in ascending order, and within a
// bin the pairs keep gather order.
func (e *Engine) assembleTiles(s *workerState, pi int32, nbrs []int32) int {
	c := &s.cols
	var frame *geom.Rotation // plane-parallel needs none: z already is the line of sight
	if e.cfg.LOS == LOSRadial {
		s.frame = geom.ToLineOfSight(e.pts[pi].Sub(e.cfg.Observer))
		frame = &s.frame
	}
	n := sphharm.PairColumns(&e.shell, frame, e.pts, e.ws, pi, nbrs, c)
	if e.cfg.LOS == LOSMidpoint {
		// One frame per pair.
		pn := e.nhat[pi]
		for i, j := range c.ID[:n] {
			v := geom.MidpointLOS(pn, e.nhat[j]).Apply(geom.Vec3{X: c.X[i], Y: c.Y[i], Z: c.Z[i]})
			c.X[i], c.Y[i], c.Z[i] = v.X, v.Y, v.Z
		}
	}

	bins := c.Bin[:n]
	cnt, end := s.cnt, s.end
	for _, b := range bins {
		cnt[b]++
	}
	s.tl = s.tl[:0]
	o := int32(0)
	for b, k := range cnt {
		end[b] = o // the segment's start, until the scatter has walked it
		if k > 0 {
			s.tl = append(s.tl, int32(b))
		}
		o += k
	}
	tx, ty, tz, tw := s.tx[:n], s.ty[:n], s.tz[:n], s.tw[:n]
	ux, uy, uz, w := c.X[:n], c.Y[:n], c.Z[:n], c.W[:n]
	for i, b := range bins {
		d := end[b]
		end[b] = d + 1
		tx[d] = ux[i]
		ty[d] = uy[i]
		tz[d] = uz[i]
		tw[d] = w[i]
	}
	return n
}

// tile returns touched bin bb's segment [beg, end) of the t* columns.
func (s *workerState) tile(bb int32) (beg, end int) {
	end = int(s.end[bb])
	return end - int(s.cnt[bb]), end
}

// growTiles sizes the pair-tile scratch for neighbor lists of up to n ids
// (with headroom, so a run of slowly lengthening lists does not reallocate
// per unit; the columns only ever grow and survive across units). The sweep
// stores whole vector registers, hence the multiple of sphharm.Lanes.
func (s *workerState) growTiles(n int, ids bool) {
	n = (n + n/4 + sphharm.Lanes - 1) &^ (sphharm.Lanes - 1)
	col := func() []float64 { return make([]float64, n) }
	s.cols = sphharm.PairCols{X: col(), Y: col(), Z: col(), W: col(), Bin: make([]int32, n)}
	if ids {
		s.cols.ID = make([]int32, n)
	}
	s.tx, s.ty, s.tz, s.tw = col(), col(), col(), col()
}

// accumulateSelfPairs adds one primary's self-pair moments to the unit's
// [bin][L] array (SelfCount only): the Legendre moments of every touched
// tile's already-rotated z column under the squared secondary weights, in
// one call over the primary's tiles (they are packed in ascending bin
// order), each scaled by the primary weight. processBlock charges it to the
// self-count clock once per primary — a tile is a few hundred nanoseconds of
// work, too short to bracket with its own clock reads.
func (s *workerState) accumulateSelfPairs(pw float64, n int) {
	nL := len(s.selfW) / len(s.cnt)
	ends := s.selfEnds[:0]
	for _, bb := range s.tl {
		ends = append(ends, s.end[bb])
	}
	s.selfEnds = ends
	if len(ends) > 0 {
		mom := s.selfMom[:len(ends)*nL]
		sphharm.LegendreMomentsTiles(s.tz[:n], s.tw[:n], ends, mom)
		for t, bb := range s.tl {
			w := s.selfW[int(bb)*nL:][:nL]
			for l, v := range mom[t*nL : (t+1)*nL] {
				w[l] += float64(pw * v)
			}
		}
	}
}

// selfTerm contracts bin bb's unit moments with one channel's Legendre
// series: the unit's summed w_i w_j^2 Y_l1m(rhat_ij) conj(Y_l2m(rhat_ij)),
// which stage 3 subtracts from the channel's (bb, bb) element. It is real
// for every channel because the two harmonics share m.
func (s *workerState) selfTerm(series []sphharm.LegendreTerm, bb int) float64 {
	w := s.selfW[bb*(len(s.selfW)/len(s.cnt)):]
	var sum float64
	for _, tm := range series {
		sum += float64(tm.C * w[tm.L])
	}
	return sum
}
