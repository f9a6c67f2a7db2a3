package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc64"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"galactos/internal/hist"
)

// The per-record codec is the one every GRES v1 file, cache entry and shard
// checkpoint in existence was written by: one 16-byte Write (and one 16-byte
// checksum update) per channel. It survives here as the oracle that the block
// codec must match byte for byte.

func writeResultPerRecord(w io.Writer, r *Result) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	h := crc64.New(resultCRCTable)
	mw := io.MultiWriter(bw, h)

	buf := make([]byte, 136)
	copy(buf[0:4], resultMagic)
	le := binary.LittleEndian
	le.PutUint32(buf[4:8], resultVersion)
	le.PutUint32(buf[8:12], uint32(r.LMax))
	le.PutUint32(buf[12:16], uint32(r.Bins.N))
	le.PutUint64(buf[16:24], math.Float64bits(r.Bins.RMin))
	le.PutUint64(buf[24:32], math.Float64bits(r.Bins.RMax))
	le.PutUint64(buf[32:40], uint64(r.NPrimaries))
	le.PutUint64(buf[40:48], uint64(r.NGalaxies))
	le.PutUint64(buf[48:56], r.Pairs)
	le.PutUint64(buf[56:64], math.Float64bits(r.SumWeight))
	t := r.Timings
	for i, d := range []int64{
		0, int64(t.TreeBuild), int64(t.Gather), int64(t.Consume),
		int64(t.SelfCount), int64(t.AlmZeta), 0, int64(t.WorkerTotal),
	} {
		le.PutUint64(buf[64+8*i:72+8*i], uint64(d))
	}
	le.PutUint64(buf[128:136], uint64(len(r.Aniso)))
	if _, err := mw.Write(buf); err != nil {
		return err
	}
	rec := make([]byte, 16)
	for _, v := range r.Aniso {
		le.PutUint64(rec[0:8], math.Float64bits(real(v)))
		le.PutUint64(rec[8:16], math.Float64bits(imag(v)))
		if _, err := mw.Write(rec); err != nil {
			return err
		}
	}
	le.PutUint64(rec[0:8], h.Sum64())
	if _, err := bw.Write(rec[0:8]); err != nil {
		return err
	}
	return bw.Flush()
}

func readResultPerRecord(r io.Reader) (*Result, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	h := crc64.New(resultCRCTable)
	readFullCRC := func(h hash.Hash64, buf []byte) error {
		if _, err := io.ReadFull(br, buf); err != nil {
			return err
		}
		h.Write(buf)
		return nil
	}

	buf := make([]byte, 136)
	if err := readFullCRC(h, buf); err != nil {
		return nil, fmt.Errorf("core: reading result header: %w", err)
	}
	le := binary.LittleEndian
	if string(buf[0:4]) != resultMagic {
		return nil, fmt.Errorf("core: bad result magic %q", buf[0:4])
	}
	if v := le.Uint32(buf[4:8]); v != resultVersion {
		return nil, fmt.Errorf("core: unsupported result version %d", v)
	}
	lmax := int(le.Uint32(buf[8:12]))
	nbins := int(le.Uint32(buf[12:16]))
	if lmax < 0 || lmax > resultMaxLMax {
		return nil, fmt.Errorf("core: implausible LMax %d", lmax)
	}
	if nbins <= 0 || nbins > resultMaxBins {
		return nil, fmt.Errorf("core: implausible bin count %d", nbins)
	}
	bins, err := hist.NewBinning(math.Float64frombits(le.Uint64(buf[16:24])),
		math.Float64frombits(le.Uint64(buf[24:32])), nbins)
	if err != nil {
		return nil, err
	}
	res := NewResult(lmax, bins)
	res.NPrimaries = int(le.Uint64(buf[32:40]))
	res.NGalaxies = int(le.Uint64(buf[40:48]))
	res.Pairs = le.Uint64(buf[48:56])
	res.SumWeight = math.Float64frombits(le.Uint64(buf[56:64]))
	slot := func(i int) time.Duration { return time.Duration(le.Uint64(buf[64+8*i : 72+8*i])) }
	res.Timings = Breakdown{TreeBuild: slot(1), Gather: slot(2), Consume: slot(3),
		SelfCount: slot(4), AlmZeta: slot(5), WorkerTotal: slot(7)}
	if n := le.Uint64(buf[128:136]); n != uint64(len(res.Aniso)) {
		return nil, fmt.Errorf("core: result header claims %d channels, want %d", n, len(res.Aniso))
	}
	rec := make([]byte, 16)
	for i := range res.Aniso {
		if err := readFullCRC(h, rec); err != nil {
			return nil, fmt.Errorf("core: reading result channel %d: %w", i, err)
		}
		res.Aniso[i] = complex(math.Float64frombits(le.Uint64(rec[0:8])),
			math.Float64frombits(le.Uint64(rec[8:16])))
	}
	want := h.Sum64()
	if _, err := io.ReadFull(br, rec[0:8]); err != nil {
		return nil, fmt.Errorf("core: reading result checksum: %w", err)
	}
	if got := le.Uint64(rec[0:8]); got != want {
		return nil, fmt.Errorf("core: result checksum mismatch")
	}
	return res, nil
}

// syntheticResult fills every field of an (lmax, nbins) result from seed,
// NaN and signed-zero channels included, without running the engine.
func syntheticResult(lmax, nbins int, seed int64) *Result {
	bins, err := hist.NewBinning(0.5, 40, nbins)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	res := NewResult(lmax, bins)
	res.NPrimaries, res.NGalaxies, res.Pairs, res.SumWeight = 17, 23, 1<<40+5, -3.25
	res.Timings = Breakdown{TreeBuild: 2, Gather: 3, Consume: 4, SelfCount: 5,
		AlmZeta: 6, WorkerTotal: -8}
	for i := range res.Aniso {
		res.Aniso[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if n := len(res.Aniso); n > 2 {
		res.Aniso[0] = complex(math.NaN(), math.Copysign(0, -1))
		res.Aniso[n-1] = complex(math.Inf(-1), math.Float64frombits(0x7ff8dead0000beef))
	}
	return res
}

const blockChannels = resultBlock / 16

// TestWriteResultMatchesPerRecordOracle pins the bytes: for channel counts
// on every side of the block boundaries (the first block also carries the
// 136-byte header, the last the checksum) the block writer emits exactly the
// per-record writer's bytes. The writer does not check a result's shape, so
// the counts are free.
func TestWriteResultMatchesPerRecordOracle(t *testing.T) {
	first := (resultBlock - resultHeaderLen) / 16 // channels beside the header
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, first - 1, first, first + 1, blockChannels - 1, blockChannels,
		blockChannels + 1, first + blockChannels, 3*blockChannels + 7} {
		res := syntheticResult(0, 1, int64(n))
		res.Aniso = make([]complex128, n)
		for i := range res.Aniso {
			res.Aniso[i] = complex(rng.Float64(), -rng.Float64())
		}
		var got, want bytes.Buffer
		if err := WriteResult(&got, res); err != nil {
			t.Fatal(err)
		}
		if err := writeResultPerRecord(&want, res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d channels: block writer's %d bytes differ from the per-record writer's %d",
				n, got.Len(), want.Len())
		}
	}
}

// TestReadResultMatchesPerRecordOracle decodes what the per-record writer
// wrote — a file from before this codec — with the block reader, and the
// block writer's bytes with the per-record reader, at the shapes whose
// channel counts sit closest to the block boundaries (a readable result has
// comboCount(LMax)·NBins² channels, so not every count exists).
func TestReadResultMatchesPerRecordOracle(t *testing.T) {
	for _, shape := range []struct{ lmax, nbins int }{
		{0, 1},   // 1 channel
		{2, 20},  // 4000
		{12, 3},  // 4095 = block − 1
		{0, 64},  // 4096 = block
		{0, 65},  // 4225
		{3, 25},  // 12500 = 3·block + 212
		{10, 10}, // 28600: the 458 KB result of the bench workloads
	} {
		res := syntheticResult(shape.lmax, shape.nbins, 3)
		var old, blk bytes.Buffer
		if err := writeResultPerRecord(&old, res); err != nil {
			t.Fatal(err)
		}
		if err := WriteResult(&blk, res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(old.Bytes(), blk.Bytes()) {
			t.Fatalf("%+v: encodings differ", shape)
		}
		if err := VerifyResult(old.Bytes()); err != nil {
			t.Fatalf("%+v: VerifyResult rejects a per-record encoding: %v", shape, err)
		}
		got, err := ReadResult(bytes.NewReader(old.Bytes()))
		if err != nil {
			t.Fatalf("%+v: block reader rejects a per-record encoding: %v", shape, err)
		}
		want, err := readResultPerRecord(bytes.NewReader(blk.Bytes()))
		if err != nil {
			t.Fatalf("%+v: per-record reader rejects a block encoding: %v", shape, err)
		}
		requireBitIdentical(t, got, want)
		requireBitIdentical(t, got, res)
	}
}

// requireBitIdentical is requireIdentical for results that hold NaNs:
// channels compare by bit pattern.
func requireBitIdentical(t *testing.T, got, want *Result) {
	t.Helper()
	if got.LMax != want.LMax || got.Bins != want.Bins || got.NPrimaries != want.NPrimaries ||
		got.NGalaxies != want.NGalaxies || got.Pairs != want.Pairs || got.SumWeight != want.SumWeight ||
		got.Timings != want.Timings || len(got.Aniso) != len(want.Aniso) || got.Combos.Len() != want.Combos.Len() {
		t.Fatalf("header fields differ: %+v vs %+v", got, want)
	}
	for i := range got.Aniso {
		g, w := got.Aniso[i], want.Aniso[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("channel %d: %v vs %v", i, g, w)
		}
	}
}

func TestComboCountMatchesTable(t *testing.T) {
	for l := 0; l <= resultMaxLMax; l++ {
		if got, want := comboCount(l), uint64(NewComboTable(l).Len()); got != want {
			t.Fatalf("comboCount(%d) = %d, the table has %d", l, got, want)
		}
	}
}

// damagedEncodings is the rejection table of the resultio tests — bad magic,
// future version, a flipped byte at a spread of offsets, truncation to a
// spread of lengths — plus the two cases exact-length checking adds, and the
// pristine encoding. ok is what every decoder must answer.
func damagedEncodings(t testing.TB) (cases []struct {
	name string
	data []byte
	ok   bool
}) {
	var buf bytes.Buffer
	if err := WriteResult(&buf, syntheticResult(3, 4, 9)); err != nil {
		t.Fatal(err)
	}
	pristine, n := buf.Bytes(), buf.Len()
	add := func(name string, ok bool, edit func(b []byte) []byte) {
		cases = append(cases, struct {
			name string
			data []byte
			ok   bool
		}{name, edit(bytes.Clone(pristine)), ok})
	}
	add("pristine", true, func(b []byte) []byte { return b })
	add("bad magic", false, func(b []byte) []byte { copy(b, "NOPE"); return b })
	add("future version", false, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], resultVersion+1); return b })
	add("huge lmax", false, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:12], resultMaxLMax+1); return b })
	add("zero bins", false, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:16], 0); return b })
	add("huge claim", false, func(b []byte) []byte {
		// The largest header the plausibility checks admit: 5e16 channels.
		binary.LittleEndian.PutUint32(b[8:12], resultMaxLMax)
		binary.LittleEndian.PutUint32(b[12:16], resultMaxBins)
		binary.LittleEndian.PutUint64(b[128:136], comboCount(resultMaxLMax)<<40)
		return b
	})
	for _, off := range []int{8, 60, 100, 130, 136, n / 2, n - 9, n - 1} {
		add(fmt.Sprintf("flip@%d", off), false, func(b []byte) []byte { b[off] ^= 0x40; return b })
	}
	for _, keep := range []int{0, 3, 135, 136, n / 2, n - 8, n - 1} {
		add(fmt.Sprintf("truncate@%d", keep), false, func(b []byte) []byte { return b[:keep] })
	}
	add("trailing byte", false, func(b []byte) []byte { return append(b, 0) })
	add("two results", false, func(b []byte) []byte { return append(b, pristine...) })
	return cases
}

// TestVerifyResultAgreesWithReadResult: the cache's check and the decoder
// apply one acceptance rule.
func TestVerifyResultAgreesWithReadResult(t *testing.T) {
	for _, c := range damagedEncodings(t) {
		_, rerr := ReadResult(bytes.NewReader(c.data))
		verr := VerifyResult(c.data)
		if (rerr == nil) != c.ok || (verr == nil) != c.ok {
			t.Errorf("%s: want accepted=%v, ReadResult says %v, VerifyResult says %v", c.name, c.ok, rerr, verr)
		}
	}
}

// FuzzReadResult: no input panics either decoder, they always agree, an
// accepted input re-encodes to itself, and ReadResult's memory follows the
// input's length rather than its header's claim (a 144-byte input can claim
// 5e16 channels).
func FuzzReadResult(f *testing.F) {
	for _, c := range damagedEncodings(f) {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, rerr := ReadResult(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The combo table of the largest admissible LMax is a few MB; the
		// channel array is trusted for 1 MB and then doubles with the data.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<20+4*len(data)); grew > limit {
			t.Fatalf("ReadResult allocated %d bytes for a %d-byte input (limit %d)", grew, len(data), limit)
		}
		if verr := VerifyResult(data); (verr == nil) != (rerr == nil) {
			t.Fatalf("decoders disagree: ReadResult %v, VerifyResult %v", rerr, verr)
		}
		if rerr != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteResult(&again, res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatal("an accepted encoding does not re-encode to itself")
		}
	})
}
