package core

import (
	"runtime"
	"testing"

	"galactos/internal/geom"
	"galactos/internal/kdtree"
)

func TestFingerprintZeroValueInvariance(t *testing.T) {
	// A config with defaulted (zero) tunables and the same config with
	// those defaults spelled out explicitly are the same effective
	// configuration, so they must fingerprint identically.
	raw := DefaultConfig()

	explicit := raw
	explicit.Workers = runtime.GOMAXPROCS(0)
	explicit.ChunkSize = 64
	explicit.LeafSize = kdtree.DefaultLeafSize
	explicit.GridCell = raw.RMax / 4
	explicit.BlockCell = raw.RMax / 2

	a, err := raw.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("zero-valued and explicit-default configs fingerprint differently:\n  %s\n  %s", a, b)
	}

	// Normalizing must be a fixed point: fingerprint(cfg) ==
	// fingerprint(cfg.Normalize()).
	norm, err := raw.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	c, err := norm.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Errorf("fingerprint not invariant under Normalize:\n  %s\n  %s", a, c)
	}
}

func TestFingerprintOrderInvariance(t *testing.T) {
	// The fingerprint must depend only on the effective field values, not
	// on the order the caller assigned them (i.e. it must be a pure
	// function of the struct value) — and repeated calls must be stable.
	var a Config
	a.LMax = 4
	a.NBins = 8
	a.RMax = 120
	a.SelfCount = true
	a.Finder = FinderGrid

	b := Config{RMax: 120, NBins: 8, LMax: 4, SelfCount: true, Finder: FinderGrid}

	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("identical configs assembled in different orders fingerprint differently:\n  %s\n  %s", fa, fb)
	}
	fa2, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fa2 {
		t.Errorf("fingerprint unstable across calls: %s vs %s", fa, fa2)
	}
}

func TestFingerprintSeparatesConfigs(t *testing.T) {
	// Every result-affecting field must move the fingerprint.
	base := DefaultConfig()
	ref, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"rmax", func(c *Config) { c.RMax = 150 }},
		{"rmin", func(c *Config) { c.RMin = 10 }},
		{"nbins", func(c *Config) { c.NBins = 10 }},
		{"lmax", func(c *Config) { c.LMax = 4 }},
		{"los", func(c *Config) { c.LOS = LOSRadial }},
		{"observer", func(c *Config) { c.Observer = geom.Vec3{X: 1} }},
		{"selfcount", func(c *Config) { c.SelfCount = false }},
		{"iso-only", func(c *Config) { c.IsotropicOnly = true }},
		{"bucket", func(c *Config) { c.BucketSize = 64 }},
		{"finder", func(c *Config) { c.Finder = FinderKD64 }},
		{"leaf", func(c *Config) { c.LeafSize = 7 }},
		{"gridcell", func(c *Config) { c.GridCell = 13 }},
		{"chunk", func(c *Config) { c.ChunkSize = 17 }},
		{"blockcell", func(c *Config) { c.BlockCell = 33 }},
	}
	seen := map[string]string{ref: "base"}
	for _, m := range mutations {
		cfg := base
		m.mutate(&cfg)
		fp, err := cfg.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s: fingerprint collides with %s", m.name, prev)
		}
		seen[fp] = m.name
	}
	// The worker count moves no result bit, so it moves no key.
	for _, w := range []int{1, 3, 1 + runtime.GOMAXPROCS(0)} {
		cfg := base
		cfg.Workers = w
		if fp, err := cfg.Fingerprint(); err != nil || fp != ref {
			t.Errorf("Workers=%d: fingerprint %s (err %v), want the default's %s", w, fp, err, ref)
		}
	}
}

func TestFingerprintRejectsInvalidConfig(t *testing.T) {
	var zero Config
	if _, err := zero.Fingerprint(); err == nil {
		t.Error("zero config fingerprinted without error; want the Normalize validation error")
	}
}
