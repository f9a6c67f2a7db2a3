package core

import (
	"reflect"
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
	explicit.LeafSize = kdtree.DefaultLeafSize
	explicit.GridCell = raw.RMax / 4
	explicit.BucketSize = 128

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
	a.IsotropicOnly = true

	b := Config{RMax: 120, NBins: 8, LMax: 4, SelfCount: true, IsotropicOnly: true}

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
	// Every field the engine reads must move the fingerprint and every other
	// field must leave it. Each Config field is named in one of the two
	// tables, so a field added later cannot silently miss the key.
	base := DefaultConfig() // plane-parallel
	ref, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		field, name string
		mutate      func(*Config)
	}
	moves := []row{
		{"RMax", "rmax", func(c *Config) { c.RMax = 150 }},
		{"RMin", "rmin", func(c *Config) { c.RMin = 10 }},
		{"NBins", "nbins", func(c *Config) { c.NBins = 10 }},
		{"LMax", "lmax", func(c *Config) { c.LMax = 4 }},
		{"LOS", "radial", func(c *Config) { c.LOS = LOSRadial }},
		{"LOS", "midpoint", func(c *Config) { c.LOS = LOSMidpoint }},
		{"Observer", "radial+observer", func(c *Config) { c.LOS, c.Observer = LOSRadial, geom.Vec3{X: 1} }},
		{"Observer", "midpoint+observer", func(c *Config) { c.LOS, c.Observer = LOSMidpoint, geom.Vec3{X: 1} }},
		{"SelfCount", "selfcount", func(c *Config) { c.SelfCount = false }},
		{"IsotropicOnly", "iso-only", func(c *Config) { c.IsotropicOnly = true }},
	}
	// The worker count, the deprecated knobs and an Observer no line of sight
	// reads move no result bit, so they move no key.
	stays := []row{
		{"Workers", "workers=1", func(c *Config) { c.Workers = 1 }},
		{"Workers", "workers=3", func(c *Config) { c.Workers = 3 }},
		{"Workers", "workers>procs", func(c *Config) { c.Workers = 1 + runtime.GOMAXPROCS(0) }},
		{"Finder", "finder", func(c *Config) { c.Finder = FinderKD64 }},
		{"LeafSize", "leaf", func(c *Config) { c.LeafSize = 7 }},
		{"GridCell", "gridcell", func(c *Config) { c.GridCell = 13 }},
		{"BucketSize", "bucket", func(c *Config) { c.BucketSize = 64 }},
		{"Observer", "plane-parallel+observer", func(c *Config) { c.Observer = geom.Vec3{X: 1} }},
	}
	named := map[string]bool{}
	seen := map[string]string{ref: "base"}
	for _, m := range moves {
		named[m.field] = true
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
	for _, m := range stays {
		named[m.field] = true
		cfg := base
		m.mutate(&cfg)
		if fp, err := cfg.Fingerprint(); err != nil || fp != ref {
			t.Errorf("%s: fingerprint %s (err %v), want the default's %s", m.name, fp, err, ref)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if !named[f.Name] {
			t.Errorf("Config.%s is in neither table: say whether it moves the key", f.Name)
		}
	}
}

func TestFingerprintRejectsInvalidConfig(t *testing.T) {
	var zero Config
	if _, err := zero.Fingerprint(); err == nil {
		t.Error("zero config fingerprinted without error; want the Normalize validation error")
	}
}
