package scenario

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"galactos/internal/exec"
	"galactos/internal/sphharm"
)

// -update-golden rewrites testdata/golden.json with hashes computed on this
// host (any host: every lane dispatch gives the same bits).
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json")

const goldenPath = "testdata/golden.json"

// goldenFile maps scenario name -> outcome hash. There is one hash per
// scenario: the vector and portable lane bodies perform the same operations
// in the same order, so the dispatch tag never moves a bit.
type goldenFile map[string]string

func loadGolden(t *testing.T) goldenFile {
	t.Helper()
	g := goldenFile{}
	data, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		return g
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return g
}

// TestRegistryShape pins the registry contract: >= 6 scenarios, unique
// names, each resolvable by Get and carrying at least one invariant.
func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) < 6 {
		t.Fatalf("registry has %d scenarios, want >= 6", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.Invariants) == 0 {
			t.Errorf("scenario %s has no invariants", s.Name)
		}
		if s.GoldenN < s.MinN {
			t.Errorf("scenario %s: GoldenN %d below MinN %d", s.Name, s.GoldenN, s.MinN)
		}
		got, err := Get(s.Name)
		if err != nil || got != s {
			t.Errorf("Get(%q) = %v, %v", s.Name, got, err)
		}
	}
	if _, err := Get("no-such-scenario"); err == nil {
		t.Error("Get accepted an unknown name")
	}
}

// TestInvariantsAtSmokeN: every scenario passes its invariants at a small,
// CI-sized N with a seed different from the golden seed — the invariants
// are structural, not tuned to one realization.
func TestInvariantsAtSmokeN(t *testing.T) {
	ctx := context.Background()
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			if _, err := s.RunChecked(ctx, exec.Spec{}, 900, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGoldenHashes: at the pinned (GoldenN, GoldenSeed), every scenario is
// run-to-run bitwise deterministic and, under every lane dispatch this host
// has, matches its one committed golden hash. Run with -update-golden to
// regenerate testdata/golden.json.
func TestGoldenHashes(t *testing.T) {
	ctx := context.Background()
	golden := loadGolden(t)
	defer sphharm.SetLaneDispatch(sphharm.HasAVX512())

	changed := false
	for _, s := range All() {
		var h1 string
		for _, vector := range []bool{false, true} {
			if sphharm.SetLaneDispatch(vector) != vector {
				continue // no vector bodies on this host
			}
			tag := sphharm.LaneDispatch()
			o, err := s.RunChecked(ctx, exec.Spec{}, s.GoldenN, s.GoldenSeed)
			if err != nil {
				t.Fatalf("%s [%s]: %v", s.Name, tag, err)
			}
			if h := o.GoldenHash(); h1 == "" {
				h1 = h
			} else if h != h1 {
				t.Errorf("%s: hash %s under %s, %s under generic", s.Name, h, tag, h1)
			}
		}
		o2, err := s.Run(ctx, exec.Spec{}, s.GoldenN, s.GoldenSeed)
		if err != nil {
			t.Fatalf("%s rerun: %v", s.Name, err)
		}
		if h2 := o2.GoldenHash(); h2 != h1 {
			t.Errorf("%s: run-to-run hash mismatch\n  %s\n  %s", s.Name, h1, h2)
			continue
		}
		if *updateGolden {
			if golden[s.Name] != h1 {
				golden[s.Name] = h1
				changed = true
			}
			continue
		}
		switch want := golden[s.Name]; {
		case want == "":
			t.Errorf("%s: no golden hash — run `make golden`", s.Name)
		case want != h1:
			t.Errorf("%s: hash %s, golden %s", s.Name, h1, want)
		}
	}
	if *updateGolden && changed {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
	}
}
