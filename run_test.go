package galactos_test

import (
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"galactos"
)

// TestRunNormalizesOnce pins the fix for the old facade's latent
// inconsistency, where Config.Normalize ran on some paths but not others:
// Run normalizes exactly once at entry, so a request submitted with
// defaulted (zero) tunables and the same request with the normalized config
// spelled out must produce bitwise-identical results — on every backend —
// and identical fingerprints.
func TestRunNormalizesOnce(t *testing.T) {
	cat := galactos.GenerateClustered(500, 200, galactos.DefaultClusterParams(), 9)
	raw := galactos.DefaultConfig()
	raw.RMax = 50
	raw.NBins = 5
	raw.LMax = 3
	// Leave Workers and the deprecated LeafSize, GridCell and BucketSize
	// zero: the run must resolve them once, identically on every path.
	norm, err := raw.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	fpRaw, err := raw.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpNorm, err := norm.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpRaw != fpNorm {
		t.Fatalf("un-normalized and normalized configs fingerprint differently:\n  %s\n  %s", fpRaw, fpNorm)
	}

	backends := []struct {
		name string
		spec galactos.BackendSpec
	}{
		{"local", galactos.BackendSpec{}},
		{"sharded", galactos.BackendSpec{Name: "sharded", Shards: 2}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			rawRun, err := galactos.Run(context.Background(), galactos.Request{
				Catalog: cat, Config: raw, Backend: b.spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			normRun, err := galactos.Run(context.Background(), galactos.Request{
				Catalog: cat, Config: norm, Backend: b.spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			x, y := rawRun.Result, normRun.Result
			if x.Pairs != y.Pairs || x.NPrimaries != y.NPrimaries {
				t.Fatalf("counters differ: %d/%d pairs, %d/%d primaries",
					x.Pairs, y.Pairs, x.NPrimaries, y.NPrimaries)
			}
			for i := range x.Aniso {
				a, b := x.Aniso[i], y.Aniso[i]
				if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
					math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
					t.Fatalf("Aniso[%d] not bitwise identical: %v vs %v", i, a, b)
				}
			}
		})
	}
}

// TestRequestResolveSource pins the one request check: exactly one catalog
// input, a backend spec it can run, and a finite timeout a time.Duration
// holds (1e10 s used to overflow to a negative deadline and fail the run at
// once; NaN failed the comparison and passed). A negative timeout sets no
// deadline.
func TestRequestResolveSource(t *testing.T) {
	cat := galactos.GenerateUniform(10, 100, 1)
	cases := []struct {
		name string
		req  galactos.Request
		ok   bool
	}{
		{"none", galactos.Request{}, false},
		{"catalog", galactos.Request{Catalog: cat}, true},
		{"path", galactos.Request{Path: "x.glxc"}, true},
		{"source", galactos.Request{Source: galactos.NewMemorySource(cat)}, true},
		{"catalog+path", galactos.Request{Catalog: cat, Path: "x.glxc"}, false},
		{"source+catalog", galactos.Request{Source: galactos.NewMemorySource(cat), Catalog: cat}, false},
		{"sharded", galactos.Request{Catalog: cat, Backend: galactos.BackendSpec{Name: "sharded", Shards: 4}}, true},
		{"local with shards", galactos.Request{Catalog: cat, Backend: galactos.BackendSpec{Shards: 4}}, false},
		{"unknown backend", galactos.Request{Catalog: cat, Backend: galactos.BackendSpec{Name: "mpi"}}, false},
		{"longest timeout", galactos.Request{Catalog: cat, TimeoutSec: float64(math.MaxInt64 / int64(time.Second))}, true},
		{"timeout beyond time.Duration", galactos.Request{Catalog: cat, TimeoutSec: 1e10}, false},
		{"infinite timeout", galactos.Request{Catalog: cat, TimeoutSec: math.Inf(1)}, false},
		{"NaN timeout", galactos.Request{Catalog: cat, TimeoutSec: math.NaN()}, false},
		{"minus infinite timeout", galactos.Request{Catalog: cat, TimeoutSec: math.Inf(-1)}, false},
		{"negative timeout", galactos.Request{Catalog: cat, TimeoutSec: -1}, true},
	}
	for _, tc := range cases {
		_, err := tc.req.Resolve()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: want error, got none", tc.name)
		}
	}
}

// TestRequestJSONRoundTrip pins the wire contract: a Request serialized to
// JSON and deserialized runs the identical job — the job schema of the
// galactosd service is the Request type itself, not a parallel definition.
func TestRequestJSONRoundTrip(t *testing.T) {
	cat := galactos.GenerateClustered(300, 150, galactos.DefaultClusterParams(), 4)
	cfg := galactos.DefaultConfig()
	cfg.RMax = 40
	cfg.NBins = 4
	cfg.LMax = 2
	cfg.Workers = 1
	req := galactos.Request{
		Catalog: cat,
		Config:  cfg,
		Backend: galactos.BackendSpec{Name: "sharded", Shards: 2},
		Label:   "roundtrip",
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back galactos.Request
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	direct, err := galactos.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wired, err := galactos.Run(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	if wired.Result.Pairs != direct.Result.Pairs {
		t.Fatalf("pair counts differ after JSON round trip: %d vs %d",
			wired.Result.Pairs, direct.Result.Pairs)
	}
	for i := range direct.Result.Aniso {
		a, b := direct.Result.Aniso[i], wired.Result.Aniso[i]
		if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
			math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
			t.Fatalf("Aniso[%d] not bitwise identical after JSON round trip: %v vs %v", i, a, b)
		}
	}
}

// TestRunRejectsNonFiniteInput pins the fix for a silent wrong answer: a
// catalog with a NaN or infinite coordinate used to run to completion with
// that galaxy's pairs missing, and a non-finite weight reached every sum.
// Run must refuse, naming the galaxy, before any engine work — for a
// resident catalog and for a file, on both backends — and refuse a
// non-finite box side the same way.
func TestRunRejectsNonFiniteInput(t *testing.T) {
	cfg := galactos.DefaultConfig()
	cfg.RMax, cfg.NBins, cfg.LMax, cfg.Workers = 40, 4, 2, 1
	const bad = 137
	cases := []struct {
		name string
		mut  func(*galactos.Galaxy)
	}{
		{"nan-position", func(g *galactos.Galaxy) { g.Pos.X = math.NaN() }},
		{"plus-inf-position", func(g *galactos.Galaxy) { g.Pos.Y = math.Inf(1) }},
		{"minus-inf-position", func(g *galactos.Galaxy) { g.Pos.Z = math.Inf(-1) }},
		{"nan-weight", func(g *galactos.Galaxy) { g.Weight = math.NaN() }},
		{"inf-weight", func(g *galactos.Galaxy) { g.Weight = math.Inf(1) }},
	}
	for _, tc := range cases {
		cat := galactos.GenerateClustered(500, 200, galactos.DefaultClusterParams(), 9)
		tc.mut(&cat.Galaxies[bad])
		path := filepath.Join(t.TempDir(), "bad.glxc")
		if err := galactos.SaveCatalog(path, cat); err != nil {
			t.Fatal(err)
		}
		for _, spec := range []galactos.BackendSpec{{}, {Name: "sharded", Shards: 2}} {
			for _, req := range []galactos.Request{
				{Catalog: cat, Config: cfg, Backend: spec},
				{Path: path, Config: cfg, Backend: spec},
			} {
				_, err := galactos.Run(context.Background(), req)
				if err == nil || !strings.Contains(err.Error(), "galaxy 137 has non-finite") {
					t.Errorf("%s, backend %q, path %q: got %v, want a non-finite error naming galaxy 137",
						tc.name, spec.Name, req.Path, err)
				}
			}
		}
	}

	// A NaN box side fails every geometry comparison: it used to run to
	// zero pairs.
	cat := galactos.GenerateClustered(500, 200, galactos.DefaultClusterParams(), 9)
	cat.Box.L = math.NaN()
	path := filepath.Join(t.TempDir(), "nan-box.glxc")
	if err := galactos.SaveCatalog(path, cat); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []galactos.BackendSpec{{}, {Name: "sharded", Shards: 2}} {
		for _, req := range []galactos.Request{
			{Catalog: cat, Config: cfg, Backend: spec},
			{Path: path, Config: cfg, Backend: spec},
		} {
			if _, err := galactos.Run(context.Background(), req); err == nil || !strings.Contains(err.Error(), "non-finite box side") {
				t.Errorf("NaN box, backend %q, path %q: got %v, want a non-finite box error", spec.Name, req.Path, err)
			}
		}
	}
}

// TestRunRejectsPositionsOutsideBox pins the fix for another silent wrong
// answer: in a periodic box, galaxies shifted by a whole box side are the
// same physical catalog, but the engine does not wrap positions, so such a
// catalog used to run to completion with pairs missing (5212 → 4158 here,
// max |Δζ| 541 of 1777). Run must refuse it, naming the axis, on both
// backends — checkpointed or not — for a resident catalog and for a file.
func TestRunRejectsPositionsOutsideBox(t *testing.T) {
	cfg := galactos.DefaultConfig()
	cfg.RMax, cfg.NBins, cfg.LMax, cfg.Workers = 40, 4, 2, 1
	cat := galactos.GenerateUniform(400, 200, 3)
	for i := 0; i < 50; i++ {
		cat.Galaxies[7*i].Pos.Y += 2 * cat.Box.L
	}
	path := filepath.Join(t.TempDir(), "shifted.glxc")
	if err := galactos.SaveCatalog(path, cat); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []galactos.BackendSpec{
		{}, {Name: "sharded", Shards: 2}, {Name: "sharded", Shards: 4, CheckpointDir: t.TempDir()},
	} {
		for _, req := range []galactos.Request{
			{Catalog: cat, Config: cfg, Backend: spec},
			{Path: path, Config: cfg, Backend: spec},
		} {
			_, err := galactos.Run(context.Background(), req)
			if err == nil || !strings.Contains(err.Error(), "y coordinates span") || !strings.Contains(err.Error(), "[0, L)") {
				t.Errorf("backend %+v, path %q: got %v, want a refusal naming the y axis", spec, req.Path, err)
			}
		}
	}
}
