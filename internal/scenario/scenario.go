// Package scenario is the survey-science scenario registry: every end-to-end
// workload of the paper's Sec. 6 pipeline — periodic simulation boxes,
// data+randoms estimator measurements with edge correction (Sec. 6.1),
// jackknife covariance from spatial sub-volumes (Sec. 6.1), the 2PCF
// cross-check (Sec. 1.1/2.3), and the gridded estimator comparison
// (Sec. 6.3) — as a registry row: a deterministic seeded catalog recipe, a
// core.Config, and machine-checked invariants. Each scenario runs on an
// exec.Spec, so every entry inherits cancellation, checkpoint/resume, and
// the run record, and the registry is the single correctness gate any
// future backend must pass: structural invariants per run, bitwise golden
// hashes for pinned seeds, and cross-backend equivalence in the test
// harness.
package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"galactos/internal/core"
	"galactos/internal/estimator"
	"galactos/internal/exec"
	"galactos/internal/twopcf"
)

// Invariant is one machine-checked property of a scenario outcome.
type Invariant struct {
	// Name is a short stable identifier ("cov-psd", "pair-count-match").
	Name string
	// Desc says what is being checked, for the CLI table.
	Desc string
	// Check returns nil when the outcome satisfies the invariant.
	Check func(o *Outcome) error
}

// Scenario is one registry row: a named, seeded, end-to-end workload.
type Scenario struct {
	// Name is the registry key (Get's argument, and a subtest name).
	Name string
	// Desc is a one-line description of the workload.
	Desc string
	// GoldenN and GoldenSeed pin the catalog recipe of the golden-hash run:
	// the (n, seed) at which testdata/golden.json entries were generated.
	GoldenN    int
	GoldenSeed int64
	// MinN is the smallest catalog size at which the recipe stays
	// meaningful (enough points per radial bin / jackknife region); Run
	// clamps n up to it.
	MinN int
	// Run executes the workload. All engine runs go through exec.Run on
	// the backend spec (auxiliary statistics like the 2PCF pair count or
	// the gridded mesh comparison run in-process). Outcomes are bitwise
	// reproducible at any worker count, so configs leave Workers unset.
	Run func(ctx context.Context, spec exec.Spec, n int, seed int64) (*Outcome, error)
	// Invariants are checked by RunChecked in order.
	Invariants []Invariant
}

// RunChecked runs the scenario and applies every invariant; the first
// violation is returned wrapped with the invariant name (the outcome is
// still returned for inspection).
func (s *Scenario) RunChecked(ctx context.Context, spec exec.Spec, n int, seed int64) (*Outcome, error) {
	o, err := s.Run(ctx, spec, n, seed)
	if err != nil {
		return nil, err
	}
	for _, inv := range s.Invariants {
		if err := inv.Check(o); err != nil {
			return o, fmt.Errorf("scenario %s: invariant %s: %w", s.Name, inv.Name, err)
		}
	}
	return o, nil
}

// Outcome carries everything a scenario produced. Which payloads are
// non-nil depends on the scenario; the hash and comparison helpers fold in
// exactly the non-nil ones.
type Outcome struct {
	// Scenario, N, Seed identify the run (N is the effective size after
	// the MinN clamp).
	Scenario string
	N        int
	Seed     int64
	Elapsed  time.Duration

	// Result is the scenario's primary engine result (the D-R field for
	// the survey estimator, the full-sample run for the jackknife).
	Result *core.Result
	// Cross is a secondary engine result (the scaled-randoms run of the
	// survey estimator, the gridded-mesh run of gridded-vs-exact).
	Cross *core.Result
	// Corrected is the edge-corrected estimator output.
	Corrected *estimator.Corrected
	// TwoPCF is the matched-binning pair count of the 2PCF cross-check.
	TwoPCF *twopcf.PairCounts
	// Jackknife is the resampling output.
	Jackknife *Jackknife
	// Survey bundles the survey-estimator stage runs (per-unit stats for
	// resume assertions).
	Survey *Survey
}

// payloads returns the outcome's numeric content as named float64 vectors —
// one canonical serialization shared by GoldenHash (bitwise) and MaxRelDiff
// (tolerance comparison). Counters ride along as exactly-representable
// floats (all counts here are far below 2^53).
func (o *Outcome) payloads() map[string][]float64 {
	p := make(map[string][]float64)
	addRes := func(tag string, r *core.Result) {
		if r == nil {
			return
		}
		v := make([]float64, 0, 2*len(r.Aniso))
		for _, z := range r.Aniso {
			v = append(v, real(z), imag(z))
		}
		p[tag+"/aniso"] = v
		p[tag+"/meta"] = []float64{
			float64(r.NPrimaries), float64(r.NGalaxies),
			float64(r.Pairs), r.SumWeight,
		}
	}
	addRes("result", o.Result)
	addRes("cross", o.Cross)
	if c := o.Corrected; c != nil {
		var zeta, win []float64
		for l := range c.Zeta {
			zeta = append(zeta, c.Zeta[l]...)
			win = append(win, c.WindowF[l]...)
		}
		p["corrected/zeta"] = zeta
		p["corrected/window"] = win
		p["corrected/cond"] = []float64{c.Condition}
	}
	if t := o.TwoPCF; t != nil {
		var counts []float64
		for _, row := range t.Counts {
			counts = append(counts, row...)
		}
		p["twopcf/counts"] = counts
		p["twopcf/meta"] = []float64{float64(t.NPairs), t.SumW, t.SumW2}
	}
	if j := o.Jackknife; j != nil {
		counts := make([]float64, len(j.RegionCounts))
		for i, c := range j.RegionCounts {
			counts[i] = float64(c)
		}
		p["jk/counts"] = counts
		p["jk/full"] = j.Full
		p["jk/mean"] = j.Mean
		var flat []float64
		for _, s := range j.Samples {
			flat = append(flat, s...)
		}
		p["jk/samples"] = flat
		if j.Cov != nil {
			p["jk/cov"] = j.Cov.Data
		}
	}
	return p
}

// GoldenHash returns the SHA-256 of the outcome's canonical serialization:
// payload names, lengths, and raw float64 bits in sorted-name order. Equal
// hashes mean bitwise-equal outcomes, on any host: the vector and the
// portable lane bodies give the same bits.
func (o *Outcome) GoldenHash() string {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		io.WriteString(h, s)
	}
	ws(o.Scenario)
	wu(uint64(o.N))
	wu(uint64(o.Seed))
	p := o.payloads()
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ws(k)
		wu(uint64(len(p[k])))
		for _, v := range p[k] {
			wu(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MaxRelDiff returns the worst per-payload relative difference between two
// outcomes of the same scenario: max over payloads of
// max|a_i - b_i| / max(max|a|, max|b|, tiny). Payload shape mismatches are
// errors.
func (o *Outcome) MaxRelDiff(other *Outcome) (float64, error) {
	pa, pb := o.payloads(), other.payloads()
	if len(pa) != len(pb) {
		return 0, fmt.Errorf("scenario: payload sets differ (%d vs %d)", len(pa), len(pb))
	}
	worst := 0.0
	for k, a := range pa {
		b, ok := pb[k]
		if !ok {
			return 0, fmt.Errorf("scenario: payload %q missing from other outcome", k)
		}
		if len(a) != len(b) {
			return 0, fmt.Errorf("scenario: payload %q length mismatch (%d vs %d)", k, len(a), len(b))
		}
		scale, diff := 0.0, 0.0
		for i := range a {
			if v := math.Abs(a[i]); v > scale {
				scale = v
			}
			if v := math.Abs(b[i]); v > scale {
				scale = v
			}
			if v := math.Abs(a[i] - b[i]); v > diff {
				diff = v
			}
		}
		if scale == 0 {
			continue
		}
		if r := diff / scale; r > worst {
			worst = r
		}
	}
	return worst, nil
}
