package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"galactos/internal/catalog"
)

// ioTestResult computes a small but fully populated result: every counter,
// timing, and a dense spread of channel values.
func ioTestResult(t *testing.T) *Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RMax = 40
	cfg.NBins = 4
	cfg.LMax = 3
	cfg.Workers = 2
	cat := catalog.Clustered(400, 160, catalog.DefaultClusterParams(), 7)
	res, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireIdentical(t *testing.T, got, want *Result) {
	t.Helper()
	if got.LMax != want.LMax || got.Bins != want.Bins {
		t.Fatalf("configuration changed: LMax %d/%d, bins %+v/%+v", got.LMax, want.LMax, got.Bins, want.Bins)
	}
	if got.NPrimaries != want.NPrimaries || got.NGalaxies != want.NGalaxies ||
		got.Pairs != want.Pairs || got.SumWeight != want.SumWeight {
		t.Fatalf("counters changed: %+v vs %+v",
			[4]any{got.NPrimaries, got.NGalaxies, got.Pairs, got.SumWeight},
			[4]any{want.NPrimaries, want.NGalaxies, want.Pairs, want.SumWeight})
	}
	if got.Timings != want.Timings {
		t.Fatalf("timings changed: %+v vs %+v", got.Timings, want.Timings)
	}
	if len(got.Aniso) != len(want.Aniso) {
		t.Fatalf("channel count changed: %d vs %d", len(got.Aniso), len(want.Aniso))
	}
	for i := range got.Aniso {
		if got.Aniso[i] != want.Aniso[i] {
			t.Fatalf("channel %d changed: %v vs %v", i, got.Aniso[i], want.Aniso[i])
		}
	}
}

// TestResultReadsRetiredTimingSlots loads bytes whose IO and Total slots
// (0 and 6) are nonzero, as results written before those timings were
// retired carry them: the file passes its checksum, the slots are ignored,
// and the other timings and every bit of Aniso read back unchanged.
func TestResultReadsRetiredTimingSlots(t *testing.T) {
	res := syntheticResult(3, 4, 11)
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	le := binary.LittleEndian
	le.PutUint64(data[64:72], uint64(123*time.Millisecond))
	le.PutUint64(data[112:120], uint64(7*time.Second))
	body := len(data) - 8
	le.PutUint64(data[body:], crc64.Checksum(data[:body], resultCRCTable))
	back, err := ReadResult(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.Timings != res.Timings || len(back.Aniso) != len(res.Aniso) {
		t.Fatalf("timings %+v over %d channels, want %+v over %d", back.Timings, len(back.Aniso), res.Timings, len(res.Aniso))
	}
	for i, v := range res.Aniso {
		g := back.Aniso[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(v)) || math.Float64bits(imag(g)) != math.Float64bits(imag(v)) {
			t.Fatalf("channel %d: %v, want %v", i, g, v)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := ioTestResult(t)
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, back, res)
	// The round-tripped result must keep working as a merge operand.
	if err := back.Merge(res); err != nil {
		t.Fatal(err)
	}
	if back.NPrimaries != 2*res.NPrimaries {
		t.Errorf("merge after round trip: %d primaries, want %d", back.NPrimaries, 2*res.NPrimaries)
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	res := ioTestResult(t)
	path := filepath.Join(t.TempDir(), "res.gres")
	if err := SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, back, res)
	// SaveResult is atomic: no temporary debris next to the final file.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir has %d entries, want only the result file", len(entries))
	}
}

func TestResultRejectsBadMagic(t *testing.T) {
	res := ioTestResult(t)
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	copy(raw[0:4], "NOPE")
	if _, err := ReadResult(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted (err = %v)", err)
	}
}

func TestResultRejectsUnknownVersion(t *testing.T) {
	res := ioTestResult(t)
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[4:8], resultVersion+1)
	if _, err := ReadResult(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted (err = %v)", err)
	}
}

func TestResultRejectsCorruption(t *testing.T) {
	res := ioTestResult(t)
	var pristine bytes.Buffer
	if err := WriteResult(&pristine, res); err != nil {
		t.Fatal(err)
	}
	// Flip one byte at a spread of offsets through header, payload, and
	// trailer; every flip must be detected (header sanity check or CRC).
	n := pristine.Len()
	for _, off := range []int{8, 60, 100, 136, n / 2, n - 9, n - 1} {
		raw := append([]byte(nil), pristine.Bytes()...)
		raw[off] ^= 0x40
		if _, err := ReadResult(bytes.NewReader(raw)); err == nil {
			t.Errorf("corruption at offset %d went undetected", off)
		}
	}
}

func TestResultRejectsTruncation(t *testing.T) {
	res := ioTestResult(t)
	var pristine bytes.Buffer
	if err := WriteResult(&pristine, res); err != nil {
		t.Fatal(err)
	}
	n := pristine.Len()
	for _, keep := range []int{0, 3, 135, 136, n / 2, n - 1} {
		if _, err := ReadResult(bytes.NewReader(pristine.Bytes()[:keep])); err == nil {
			t.Errorf("truncation to %d of %d bytes went undetected", keep, n)
		}
	}
}

// TestResultRejectsNonFiniteBinning: a header whose radii are NaN or
// infinite is refused under a valid checksum, by ReadResult and
// VerifyResult alike.
func TestResultRejectsNonFiniteBinning(t *testing.T) {
	res := ioTestResult(t)
	for _, r := range [][2]float64{{0, math.NaN()}, {math.NaN(), 40}, {0, math.Inf(1)}} {
		bad := *res
		bad.Bins.RMin, bad.Bins.RMax = r[0], r[1]
		var buf bytes.Buffer
		if err := WriteResult(&buf, &bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadResult(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "binning") {
			t.Errorf("ReadResult accepted radii [%v, %v) (err = %v)", r[0], r[1], err)
		}
		if err := VerifyResult(buf.Bytes()); err == nil {
			t.Errorf("VerifyResult accepted radii [%v, %v)", r[0], r[1])
		}
	}
}

func TestMergeMatchesAdd(t *testing.T) {
	a := ioTestResult(t)
	b := ioTestResult(t)
	sum := NewResult(a.LMax, a.Bins)
	if err := sum.Merge(a, b); err != nil {
		t.Fatal(err)
	}
	ref := NewResult(a.LMax, a.Bins)
	if err := ref.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := ref.Add(b); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, sum, ref)
}

func TestMergeRejectsMismatchedConfig(t *testing.T) {
	a := ioTestResult(t)
	other := NewResult(a.LMax+1, a.Bins)
	if err := a.Merge(other); err == nil {
		t.Fatal("merge across different LMax accepted")
	}
}
