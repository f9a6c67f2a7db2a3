package catalog

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"galactos/internal/faultpoint"
	"galactos/internal/retry"
)

// flipSource serves a on its first pass and b on every later one: a
// caller's Source whose content changed between two passes.
type flipSource struct {
	a, b  *Catalog
	opens int
}

func (s *flipSource) Open() (Cursor, error) {
	s.opens++
	if s.opens == 1 {
		return &memoryCursor{cat: s.a}, nil
	}
	return &memoryCursor{cat: s.b}, nil
}

// pinSources is one catalog as each kind of source: in memory, and saved
// as a binary and a CSV file.
func pinSources(t *testing.T, c *Catalog) map[string]Source {
	t.Helper()
	dir := t.TempDir()
	bin, csv := filepath.Join(dir, "c.glxc"), filepath.Join(dir, "c.csv")
	for _, path := range []string{bin, csv} {
		if err := Save(path, c); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]Source{"memory": NewMemorySource(c), "binary": NewFileSource(bin), "csv": NewFileSource(csv)}
}

// TestPinPassesUnchanged: a pinned memory, binary or CSV source hands out
// exactly the catalog it was pinned to, pass after pass, and a Scan or Hash
// over it returns the pinned hash.
func TestPinPassesUnchanged(t *testing.T) {
	cat := Clustered(3*BlockRecords+7, 150, DefaultClusterParams(), 5)
	for name, src := range pinSources(t, cat) {
		t.Run(name, func(t *testing.T) {
			want, err := ReadAll(src)
			if err != nil {
				t.Fatal(err)
			}
			h, err := Hash(src)
			if err != nil {
				t.Fatal(err)
			}
			pinned := Pin(src, h)
			for pass := 0; pass < 2; pass++ {
				got, err := ReadAll(pinned)
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				assertSameCatalog(t, got, want)
			}
			if got, err := Hash(pinned); err != nil || got != h {
				t.Errorf("Hash of the pinned source = %.12s, %v; want %.12s", got, err, h)
			}
			sum, err := Scan(context.Background(), pinned, nil, true)
			if err != nil || sum.Hash != h || sum.N != cat.Len() {
				t.Errorf("Scan of the pinned source: %+v, %v; want hash %.12s over %d galaxies", sum, err, h, cat.Len())
			}
		})
	}
}

// TestPinChangedPassFails: a pinned source whose later pass reads another
// catalog — other galaxies, or the same galaxies in another box — ends that
// pass with ErrChanged, whose message says "content hash mismatch"; the
// error is fatal to the retry layer, so the pass is not repeated.
func TestPinChangedPassFails(t *testing.T) {
	a := Uniform(300, 100, 1)
	reboxed := &Catalog{Galaxies: a.Galaxies, Box: a.Box}
	reboxed.Box.L *= 2
	for name, b := range map[string]*Catalog{"galaxies": Uniform(300, 100, 2), "box": reboxed} {
		t.Run(name, func(t *testing.T) {
			h, err := Hash(NewMemorySource(a))
			if err != nil {
				t.Fatal(err)
			}
			src := &flipSource{a: a, b: b}
			pinned := Pin(src, h)
			if got, err := Hash(pinned); err != nil || got != h {
				t.Fatalf("first pass: %.12s, %v; want %.12s", got, err, h)
			}
			_, err = ReadAll(pinned)
			if !errors.Is(err, ErrChanged) || !strings.Contains(err.Error(), "content hash mismatch") {
				t.Fatalf("pass over a changed source: %v, want ErrChanged", err)
			}
			if src.opens != 2 {
				t.Errorf("source opened %d times, want 2: a changed pass must not be retried", src.opens)
			}
			if c := retry.Classify(err); c != retry.Fatal {
				t.Errorf("ErrChanged classified %v, want fatal", c)
			}
			if _, err := Scan(context.Background(), pinned, nil, true); !errors.Is(err, ErrChanged) {
				t.Errorf("Scan over a changed source: %v, want ErrChanged", err)
			}
		})
	}
}

// TestPinRetriesTransientRead: a transient read fault in the middle of a
// pinned pass (the second block) restarts the pass, and the restarted pass
// is verified from its first record — a digest carried over from the torn
// attempt would read as a changed catalog. The binary file goes through
// Hash's block-at-a-time Scan, the CSV through ReadAll's growing drain.
func TestPinRetriesTransientRead(t *testing.T) {
	cat := Clustered(3*BlockRecords+7, 150, DefaultClusterParams(), 6)
	srcs := pinSources(t, cat)
	for _, tc := range []struct {
		name string
		read func(Source) error
	}{
		{"binary", func(src Source) error { _, err := Hash(src); return err }},
		{"csv", func(src Source) error { _, err := ReadAll(src); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := srcs[tc.name]
			h, err := Hash(src)
			if err != nil {
				t.Fatal(err)
			}
			faultpoint.Enable(faultpoint.NewPlan(0,
				faultpoint.Point{Name: "catalog.source.read", After: 1, Count: 1}))
			defer faultpoint.Disable()
			if err := tc.read(Pin(src, h)); err != nil {
				t.Fatalf("pinned pass after a transient fault: %v", err)
			}
			for _, st := range faultpoint.Stats() {
				if st.Fired != 1 {
					t.Errorf("%s fired %d times, want once mid-pass", st.Name, st.Fired)
				}
			}
		})
	}
}

// TestPinForwardsLeft: a pinned cursor forwards its inner cursor's count,
// so ReadAll still sizes a pinned binary or memory catalog in one exact
// allocation (drain's bound on a cursor's count: n + n/8 + 16); a wrapper
// that hid the count would grow the array by blocks and doublings.
func TestPinForwardsLeft(t *testing.T) {
	for _, n := range []int{1, BlockRecords + 1, maxPrealloc} {
		cat := Uniform(n, 120, 1)
		srcs := pinSources(t, cat)
		for _, name := range []string{"memory", "binary"} {
			src := srcs[name]
			h, err := Hash(src)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := Pin(src, h).Open()
			if err != nil {
				t.Fatal(err)
			}
			if left, ok := remaining(cur); !ok || left != uint64(n) {
				t.Errorf("%s n=%d: pinned cursor reports %d left (known %v)", name, n, left, ok)
			}
			got, err := drain(cur)
			if err != nil {
				t.Fatal(err)
			}
			if c := cap(got.Galaxies); c < n || c > n+n/8+16 {
				t.Errorf("%s n=%d: pinned drain array cap %d, want one allocation sized to the count", name, n, c)
			}
		}
	}
}
