package catalog

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func sourceFixture() *Catalog {
	return Clustered(1234, 150, DefaultClusterParams(), 11)
}

func assertSameCatalog(t *testing.T, got, want *Catalog) {
	t.Helper()
	// "L=NaN" is a legal CSV box token; any NaN side matches any other.
	if got.Box != want.Box && !(math.IsNaN(got.Box.L) && math.IsNaN(want.Box.L)) {
		t.Fatalf("box differs: %+v vs %+v", got.Box, want.Box)
	}
	if got.Len() != want.Len() {
		t.Fatalf("length differs: %d vs %d", got.Len(), want.Len())
	}
	for i := range want.Galaxies {
		if got.Galaxies[i] != want.Galaxies[i] {
			t.Fatalf("galaxy %d differs: %+v vs %+v", i, got.Galaxies[i], want.Galaxies[i])
		}
	}
}

// drainWith reads a source with a deliberately awkward buffer size so chunk
// boundaries are exercised.
func drainWith(t *testing.T, src Source, bufLen int) *Catalog {
	t.Helper()
	cur, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	out := &Catalog{}
	buf := make([]Galaxy, bufLen)
	for {
		n, err := cur.Next(buf)
		out.Galaxies = append(out.Galaxies, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	out.Box = cur.Box()
	return out
}

func TestMemorySourceRoundTrip(t *testing.T) {
	cat := sourceFixture()
	got := drainWith(t, NewMemorySource(cat), 7)
	assertSameCatalog(t, got, cat)
}

func TestFileSourceBinaryRoundTrip(t *testing.T) {
	cat := sourceFixture()
	path := filepath.Join(t.TempDir(), "cat.glxc")
	if err := SaveBinary(path, cat); err != nil {
		t.Fatal(err)
	}
	src := NewFileSource(path)
	// Two passes: the streaming pipeline reopens sources repeatedly.
	assertSameCatalog(t, drainWith(t, src, 100), cat)
	assertSameCatalog(t, drainWith(t, src, 999), cat)
}

func TestFileSourceCSVRoundTrip(t *testing.T) {
	cat := sourceFixture()
	path := filepath.Join(t.TempDir(), "cat.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCSV(f, cat); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got := drainWith(t, NewFileSource(path), 63)
	assertSameCatalog(t, got, cat)
}

func TestReadAllMatchesLoad(t *testing.T) {
	cat := sourceFixture()
	path := filepath.Join(t.TempDir(), "cat.glxc")
	if err := SaveBinary(path, cat); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewFileSource(path))
	if err != nil {
		t.Fatal(err)
	}
	assertSameCatalog(t, got, cat)
	// The memory fast path must hand back the identical catalog.
	if mem, err := ReadAll(NewMemorySource(cat)); err != nil || mem != cat {
		t.Fatalf("memory fast path copied the catalog (err %v)", err)
	}
}

func TestBinaryCursorRejectsTruncation(t *testing.T) {
	cat := sourceFixture()
	var buf bytes.Buffer
	if err := writeBinary(&buf, cat); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-17]
	cur, err := openBinary(bytes.NewReader(trunc), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]Galaxy, 1<<16)
	for {
		_, err = cur.Next(g)
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		t.Fatal("truncated stream drained without error")
	}
}
