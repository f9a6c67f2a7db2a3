package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"galactos/internal/hist"
	"galactos/internal/lanes"
)

// Binary Result format: the checkpoint unit of the sharded pipeline. A
// partial Result is written after each shard completes and read back by the
// merge step (or by a resumed run), so the format must detect truncated and
// corrupted files from a killed process: every field is covered by a
// trailing CRC-64 and the payload length is stated in the header.
//
//	offset  size   field
//	0       4      magic "GRES"
//	4       4      version (uint32) = 1
//	8       4      LMax (uint32)
//	12      4      NBins (uint32)
//	16      8      RMin (float64)
//	24      8      RMax (float64)
//	32      8      NPrimaries (uint64)
//	40      8      NGalaxies (uint64)
//	48      8      Pairs (uint64)
//	56      8      SumWeight (float64)
//	64      64     Timings: 8 int64 nanosecond durations (timingSlots)
//	128     8      channel count (uint64) = len(Aniso)
//	136     16*C   Aniso as (re, im) float64 pairs
//	        8      CRC-64/ECMA over bytes [0, 136+16*C)
const (
	resultMagic   = "GRES"
	resultVersion = 1
	// resultMaxLMax bounds header sanity checks; the engine itself caps
	// LMax at 20 (Config.normalize).
	resultMaxLMax = 64
	// resultMaxBins bounds the radial bin count a reader will allocate for.
	resultMaxBins = 1 << 20
)

const (
	resultHeaderLen = 136
	// resultBlock is the unit of conversion, checksumming and IO: 4096
	// channels, still in L2. A smaller result uses a buffer of its own size.
	resultBlock = 1 << 16
	// resultTrust is how many channels ReadResult allocates on the header's
	// word alone (1 MB); beyond it the array doubles as the bytes arrive.
	resultTrust = 1 << 16
)

// comboCount is NewComboTable(lmax).Len() in closed form, so a header can be
// checked without building the table.
func comboCount(lmax int) uint64 {
	l := uint64(lmax)
	return (l + 1) * (l + 2) * (l + 3) / 6
}

// encodedLen is the exact number of bytes WriteResult writes for r.
func encodedLen(r *Result) int {
	return resultHeaderLen + 16*len(r.Aniso) + 8
}

// EncodeResult returns r in the versioned binary format as one slice of
// exactly its encoded length (len == cap): a holder of the bytes pins
// nothing beyond them.
func EncodeResult(r *Result) []byte {
	buf := bytes.NewBuffer(make([]byte, 0, encodedLen(r)))
	_ = WriteResult(buf, r) // writes to a bytes.Buffer do not fail
	return buf.Bytes()
}

// WriteResult writes r in the versioned binary format.
func WriteResult(w io.Writer, r *Result) error {
	le := binary.LittleEndian
	buf := make([]byte, min(resultBlock, encodedLen(r)))
	copy(buf[0:4], resultMagic)
	le.PutUint32(buf[4:8], resultVersion)
	le.PutUint32(buf[8:12], uint32(r.LMax))
	le.PutUint32(buf[12:16], uint32(r.Bins.N))
	le.PutUint64(buf[16:24], math.Float64bits(r.Bins.RMin))
	le.PutUint64(buf[24:32], math.Float64bits(r.Bins.RMax))
	le.PutUint64(buf[32:40], uint64(r.NPrimaries))
	le.PutUint64(buf[40:48], uint64(r.NGalaxies))
	le.PutUint64(buf[48:56], r.Pairs)
	le.PutUint64(buf[56:64], math.Float64bits(r.SumWeight))
	for i, d := range timingSlots(&r.Timings) {
		if d != nil {
			le.PutUint64(buf[64+8*i:72+8*i], uint64(*d))
		}
	}
	le.PutUint64(buf[128:136], uint64(len(r.Aniso)))

	// Fill the block, and whenever it is full checksum and write it; the
	// header shares the first block and the trailer the last.
	n, crc := resultHeaderLen, uint64(0)
	flush := func() error {
		crc = lanes.CRC64(crc, buf[:n])
		_, err := w.Write(buf[:n])
		n = 0
		return err
	}
	for _, v := range r.Aniso {
		if n+16 > len(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		le.PutUint64(buf[n:n+8], math.Float64bits(real(v)))
		le.PutUint64(buf[n+8:n+16], math.Float64bits(imag(v)))
		n += 16
	}
	if n+8 > len(buf) {
		if err := flush(); err != nil {
			return err
		}
	}
	crc = lanes.CRC64(crc, buf[:n])
	le.PutUint64(buf[n:n+8], crc)
	_, err := w.Write(buf[:n+8])
	return err
}

// parseResultHeader applies the header half of the acceptance rule shared by
// ReadResult and VerifyResult: magic, version, plausible LMax and bin count,
// a valid binning, and a channel count that is the one LMax and the bin
// count imply.
func parseResultHeader(buf []byte) (lmax int, bins hist.Binning, channels uint64, err error) {
	le := binary.LittleEndian
	if string(buf[0:4]) != resultMagic {
		return 0, bins, 0, fmt.Errorf("core: bad result magic %q", buf[0:4])
	}
	if v := le.Uint32(buf[4:8]); v != resultVersion {
		return 0, bins, 0, fmt.Errorf("core: unsupported result version %d (want %d)", v, resultVersion)
	}
	lmax = int(le.Uint32(buf[8:12]))
	nbins := int(le.Uint32(buf[12:16]))
	if lmax < 0 || lmax > resultMaxLMax {
		return 0, bins, 0, fmt.Errorf("core: implausible LMax %d in result header", lmax)
	}
	if nbins <= 0 || nbins > resultMaxBins {
		return 0, bins, 0, fmt.Errorf("core: implausible bin count %d in result header", nbins)
	}
	bins, err = hist.NewBinning(math.Float64frombits(le.Uint64(buf[16:24])),
		math.Float64frombits(le.Uint64(buf[24:32])), nbins)
	if err != nil {
		return 0, bins, 0, fmt.Errorf("core: invalid binning in result header: %w", err)
	}
	channels = comboCount(lmax) * uint64(nbins) * uint64(nbins)
	if n := le.Uint64(buf[128:136]); n != channels {
		return 0, bins, 0, fmt.Errorf("core: result header claims %d channels, LMax %d with %d bins implies %d",
			n, lmax, nbins, channels)
	}
	return lmax, bins, channels, nil
}

// VerifyResult is VerifyResultFrom over data.
func VerifyResult(data []byte) error {
	return VerifyResultFrom(bytes.NewReader(data), int64(len(data)), make([]byte, min(resultBlock, max(resultHeaderLen, len(data)))))
}

// VerifyResultFrom reports whether the size bytes r holds are exactly one
// encoded result that ReadResult would accept — same header rule, exact
// length, CRC-64 — reading through block (at least resultHeaderLen bytes)
// and allocating no buffer: what a cache must know of a file it did not just
// write.
func VerifyResultFrom(r io.Reader, size int64, block []byte) error {
	hdr := block[:resultHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("core: reading result header: %w", err)
	}
	_, _, channels, err := parseResultHeader(hdr)
	if err != nil {
		return err
	}
	if want := resultHeaderLen + 16*channels + 8; uint64(size) != want {
		return fmt.Errorf("core: result is %d bytes, its header implies %d: truncated or trailing data", size, want)
	}
	crc := lanes.CRC64(0, hdr)
	for left := size - resultHeaderLen - 8; left > 0; {
		n := min(left, int64(len(block)))
		if _, err := io.ReadFull(r, block[:n]); err != nil {
			return fmt.Errorf("core: reading result channels: %w", err)
		}
		crc = lanes.CRC64(crc, block[:n])
		left -= n
	}
	if _, err := io.ReadFull(r, block[:8]); err != nil {
		return fmt.Errorf("core: reading result checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(block[:8]); got != crc {
		return fmt.Errorf("core: result checksum mismatch (file %016x, computed %016x): corrupt or truncated", got, crc)
	}
	return nil
}

// ReadResult reads a Result in the versioned binary format, rejecting
// unknown versions, impossible headers, truncation, checksum mismatches and
// bytes after the checksum. Memory follows the bytes that actually arrive,
// not the header's claim (see resultTrust).
func ReadResult(r io.Reader) (*Result, error) {
	le := binary.LittleEndian
	var hdr [resultHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading result header: %w", err)
	}
	lmax, bins, channels, err := parseResultHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	res := &Result{
		LMax:       lmax,
		Bins:       bins,
		Combos:     NewComboTable(lmax),
		NPrimaries: int(le.Uint64(hdr[32:40])),
		NGalaxies:  int(le.Uint64(hdr[40:48])),
		Pairs:      le.Uint64(hdr[48:56]),
		SumWeight:  math.Float64frombits(le.Uint64(hdr[56:64])),
	}
	for i, d := range timingSlots(&res.Timings) {
		if d != nil {
			*d = time.Duration(le.Uint64(hdr[64+8*i : 72+8*i]))
		}
	}

	crc := lanes.CRC64(0, hdr[:])
	buf := make([]byte, min(resultBlock, 16*channels+8))
	res.Aniso = make([]complex128, 0, min(resultTrust, channels))
	for left := channels; left > 0; {
		k := int(min(left, resultBlock/16))
		if _, err := io.ReadFull(r, buf[:16*k]); err != nil {
			return nil, fmt.Errorf("core: reading result channel %d: %w", len(res.Aniso), err)
		}
		crc = lanes.CRC64(crc, buf[:16*k])
		if len(res.Aniso)+k > cap(res.Aniso) {
			res.Aniso = slices.Grow(res.Aniso, int(min(uint64(cap(res.Aniso)), left)))
		}
		out := res.Aniso[len(res.Aniso) : len(res.Aniso)+k]
		for i := range out {
			out[i] = complex(math.Float64frombits(le.Uint64(buf[16*i:16*i+8])),
				math.Float64frombits(le.Uint64(buf[16*i+8:16*i+16])))
		}
		res.Aniso = res.Aniso[:len(res.Aniso)+k]
		left -= uint64(k)
	}

	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return nil, fmt.Errorf("core: reading result checksum: %w", err)
	}
	if got := le.Uint64(buf[:8]); got != crc {
		return nil, fmt.Errorf("core: result checksum mismatch (file %016x, computed %016x): corrupt or truncated", got, crc)
	}
	if n, _ := r.Read(buf[:1]); n != 0 {
		return nil, fmt.Errorf("core: trailing data after result checksum")
	}
	return res, nil
}

// timingSlots maps the header's eight timing slots to t's fields. Slots 0
// and 6 held the retired IO and Total timings: they are written as 0 and
// ignored on read, so results written before still load.
func timingSlots(t *Breakdown) [8]*time.Duration {
	return [8]*time.Duration{nil, &t.TreeBuild, &t.Gather, &t.Consume, &t.SelfCount, &t.AlmZeta, nil, &t.WorkerTotal}
}

// SaveResult writes r to path atomically (WriteFileAtomic), so a crash
// mid-write never leaves a half-written checkpoint under the final name.
func SaveResult(path string, r *Result) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return WriteResult(w, r) })
}

// WriteFileAtomic lands what write produces under path: the bytes go to a
// temporary file in the same directory, which is fsynced and renamed over
// path only after a successful write, so a kill leaves the old file or the
// new one, never a torn file under the final name.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadResult reads a Result from a file written by SaveResult/WriteResult.
func LoadResult(path string) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadResult(f)
}
