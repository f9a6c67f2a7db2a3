package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"galactos/internal/hist"
	"galactos/internal/sphharm"
)

// Combo identifies one anisotropic multipole channel zeta^m_{l1 l2} with the
// canonical ordering l1 <= l2, 0 <= m <= l1. The remaining channels follow
// from zeta^m_{l2 l1}(r1, r2) = conj(zeta^m_{l1 l2}(r2, r1)) and the
// negative-m symmetry for real weights.
type Combo struct {
	L1, L2, M int
}

// ComboTable enumerates all canonical combos up to LMax. At LMax = 10 there
// are 286 channels.
type ComboTable struct {
	LMax   int
	Combos []Combo
	index  map[Combo]int
}

// NewComboTable builds the channel table for maximum order l.
func NewComboTable(l int) *ComboTable {
	t := &ComboTable{LMax: l, index: make(map[Combo]int)}
	for l2 := 0; l2 <= l; l2++ {
		for l1 := 0; l1 <= l2; l1++ {
			for m := 0; m <= l1; m++ {
				c := Combo{L1: l1, L2: l2, M: m}
				t.index[c] = len(t.Combos)
				t.Combos = append(t.Combos, c)
			}
		}
	}
	return t
}

// Len returns the number of canonical channels.
func (t *ComboTable) Len() int { return len(t.Combos) }

// Index returns the dense index of a canonical combo. ok is false if the
// combo is not canonical (l1 > l2 or m out of range).
func (t *ComboTable) Index(l1, l2, m int) (int, bool) {
	i, ok := t.index[Combo{L1: l1, L2: l2, M: m}]
	return i, ok
}

// Breakdown records where the wall-clock time went (Fig. 4). Worker-level
// sections are summed across workers; build phases are measured once. The
// old tree_search phase is split into its blocked-traversal successors:
// Gather is the block-granular neighbor query and Consume the tile assembly
// plus multipole kernel, so a win in either is attributable on its own.
type Breakdown struct {
	TreeBuild time.Duration // neighbor index construction
	Gather    time.Duration // block-granular neighbor queries (was TreeSearch)
	Consume   time.Duration // tile assembly + kernel accumulation (was Multipole)
	SelfCount time.Duration // self-pair correction evaluation
	AlmZeta   time.Duration // a_lm conversion + zeta outer products
	// WorkerTotal is the summed per-worker wall clock, including scheduler
	// and commit-clock waits that belong to no compute phase — so the
	// phase fields can sum to well below it on oversubscribed hosts.
	WorkerTotal time.Duration
}

// Add accumulates another breakdown (used by the sharded reduction).
func (b *Breakdown) Add(o Breakdown) {
	b.TreeBuild += o.TreeBuild
	b.Gather += o.Gather
	b.Consume += o.Consume
	b.SelfCount += o.SelfCount
	b.AlmZeta += o.AlmZeta
	b.WorkerTotal += o.WorkerTotal
}

// Result holds the accumulated 3PCF multipoles.
//
// Aniso stores, for every canonical channel c and radial bin pair (b1, b2),
// the weighted sum over primaries p of
//
//	w_p * [ a_{l1 m}(b1; p) * conj(a_{l2 m}(b2; p)) - selfterm ]
//
// flattened as Aniso[(c*NBins + b1)*NBins + b2]. The isotropic multipoles
// (Sec. 2.2) are derived views via IsoZeta. The JSON encoding (inside a
// run record) carries the counters and Timings, not the multipoles.
type Result struct {
	LMax       int
	Bins       hist.Binning
	Combos     *ComboTable  `json:"-"`
	Aniso      []complex128 `json:"-"`
	NPrimaries int
	// NGalaxies is the number of galaxies in the local volume (primaries
	// plus halo copies for sharded runs).
	NGalaxies int
	// Pairs is the number of primary–secondary pairs processed by the
	// multipole kernel (the paper's 8.17e15 for the full Outer Rim run).
	Pairs uint64
	// SumWeight is the summed primary weight (normalization).
	SumWeight float64
	Timings   Breakdown
}

// NewResult allocates an empty result for the given configuration.
func NewResult(lmax int, bins hist.Binning) *Result {
	ct := NewComboTable(lmax)
	return &Result{
		LMax:   lmax,
		Bins:   bins,
		Combos: ct,
		Aniso:  make([]complex128, ct.Len()*bins.N*bins.N),
	}
}

func (r *Result) anisoIndex(combo, b1, b2 int) int {
	return (combo*r.Bins.N+b1)*r.Bins.N + b2
}

// ZetaM returns the anisotropic multipole zeta^m_{l1 l2}(b1, b2) for any
// l1, l2 <= LMax and |m| <= min(l1, l2), reconstructing non-canonical
// channels by symmetry.
func (r *Result) ZetaM(l1, l2, m, b1, b2 int) complex128 {
	am := m
	if am < 0 {
		am = -am
	}
	if l1 > l2 {
		// zeta^m_{l2 l1}(b2, b1) conjugated.
		return cmplx.Conj(r.ZetaM(l2, l1, m, b2, b1))
	}
	i, ok := r.Combos.Index(l1, l2, am)
	if !ok {
		panic(fmt.Sprintf("core: invalid channel (%d,%d,%d)", l1, l2, m))
	}
	v := r.Aniso[r.anisoIndex(i, b1, b2)]
	if m < 0 {
		// a_{l,-m} = (-1)^m conj(a_lm) on both legs: the (-1)^m factors
		// cancel pairwise, leaving a conjugate.
		v = cmplx.Conj(v)
	}
	return v
}

// IsoZeta returns the isotropic multipole zeta_l(b1, b2) via the spherical
// harmonic addition theorem:
//
//	zeta_l = 4 pi / (2l+1) * sum_{m=-l}^{l} a_lm(b1) a*_lm(b2),
//
// which reduces to the m >= 0 channels by conjugate symmetry.
func (r *Result) IsoZeta(l, b1, b2 int) float64 {
	i, ok := r.Combos.Index(l, l, 0)
	if !ok {
		panic(fmt.Sprintf("core: l=%d out of range", l))
	}
	sum := real(r.Aniso[r.anisoIndex(i, b1, b2)])
	for m := 1; m <= l; m++ {
		j, _ := r.Combos.Index(l, l, m)
		sum += 2 * real(r.Aniso[r.anisoIndex(j, b1, b2)])
	}
	return 4 * math.Pi / float64(2*l+1) * sum
}

// Add accumulates another result into r (the final reduction of a
// decomposed computation). Both results must share LMax and binning.
func (r *Result) Add(o *Result) error {
	if r.LMax != o.LMax || r.Bins != o.Bins {
		return fmt.Errorf("core: cannot merge results with different configurations (LMax %d/%d, bins %+v/%+v)",
			r.LMax, o.LMax, r.Bins, o.Bins)
	}
	for i, v := range o.Aniso {
		r.Aniso[i] += v
	}
	r.NPrimaries += o.NPrimaries
	r.NGalaxies += o.NGalaxies
	r.Pairs += o.Pairs
	r.SumWeight += o.SumWeight
	r.Timings.Add(o.Timings)
	return nil
}

// Merge folds the partial results of others into r, in order. It is the
// reduction step of the sharded pipeline: each shard accumulates the
// multipole contributions of its own primaries, so summing the partials
// over any disjoint cover of the primaries reproduces the single-shot
// result. Merge is associative and (up to floating-point rounding)
// commutative; merging in a fixed order keeps it deterministic. All results
// must share LMax and binning.
func (r *Result) Merge(others ...*Result) error {
	for _, o := range others {
		if err := r.Add(o); err != nil {
			return err
		}
	}
	return nil
}

// MaxAbsDiff returns the largest |difference| between the channels of two
// results (verification helper).
func (r *Result) MaxAbsDiff(o *Result) float64 {
	max := 0.0
	for i := range r.Aniso {
		d := cmplx.Abs(r.Aniso[i] - o.Aniso[i])
		if d > max {
			max = d
		}
	}
	return max
}

// MaxAbs returns the largest channel magnitude (for relative comparisons).
func (r *Result) MaxAbs() float64 {
	max := 0.0
	for _, v := range r.Aniso {
		if a := cmplx.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// FlopsEstimate returns the floating-point work implied by the pair count:
// per pair, the multipole kernel's exact operation count
// (sphharm.FlopsPerPair: 286 at LMax = 10, where the paper's kernel spends
// 576 on its 286 monomials) plus the paper's ~37 for the tree search
// (Sec. 5.1).
func (r *Result) FlopsEstimate() float64 {
	perPair := float64(sphharm.FlopsPerPair(r.LMax)) + 37
	return perPair * float64(r.Pairs)
}
