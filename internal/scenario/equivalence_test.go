package scenario

import (
	"context"
	"testing"

	"galactos/internal/exec"
)

// TestBackendEquivalence extends the exec-layer equivalence gate to every
// registry entry, including the multi-stage estimator and jackknife
// workloads: the local path agrees with the shard decompositions to rounding
// (periodic shards materialize halo copies through minimum-image wrapping,
// which regroups the same arithmetic).
func TestBackendEquivalence(t *testing.T) {
	ctx := context.Background()
	const n, seed = 700, 11
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			run := func(b exec.Backend) *Outcome {
				t.Helper()
				o, err := s.Run(ctx, b, n, seed)
				if err != nil {
					t.Fatalf("%s on %s: %v", s.Name, b.Name(), err)
				}
				return o
			}
			local := run(exec.Local{})
			sh1 := run(exec.Sharded{NShards: 1})
			sh2 := run(exec.Sharded{NShards: 2})

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
