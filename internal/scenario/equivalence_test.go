package scenario

import (
	"context"
	"testing"

	"galactos/internal/exec"
)

// TestBackendEquivalence extends the exec-layer equivalence gate to every
// registry entry, including the multi-stage estimator and jackknife
// workloads: every invariant holds on each backend, and the local path
// agrees with the shard decompositions to rounding (periodic shards
// materialize halo copies through minimum-image wrapping, which regroups
// the same arithmetic).
func TestBackendEquivalence(t *testing.T) {
	ctx := context.Background()
	const n, seed = 700, 11
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			run := func(spec exec.Spec) *Outcome {
				t.Helper()
				o, err := s.RunChecked(ctx, spec, n, seed)
				if err != nil {
					t.Fatalf("%s on %+v: %v", s.Name, spec, err)
				}
				return o
			}
			local := run(exec.Spec{Name: "local"})
			sh1 := run(exec.Spec{Name: "sharded", Shards: 1})
			sh2 := run(exec.Spec{Name: "sharded", Shards: 2})

			for name, o := range map[string]*Outcome{
				"sharded(1)": sh1, "sharded(2)": sh2,
			} {
				rel, err := local.MaxRelDiff(o)
				if err != nil {
					t.Fatalf("local vs %s: %v", name, err)
				}
				if rel > 1e-9 {
					t.Errorf("local vs %s: worst relative difference %g exceeds 1e-9", name, rel)
				}
			}
		})
	}
}
