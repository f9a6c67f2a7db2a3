package catalog

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"galactos/internal/geom"
)

// The per-record catalog codec — one 32-byte Write, ReadFull or hash update
// per galaxy — is what wrote every GLXC file and minted every GCAT1 hash
// (and so every cache key) before the block codec. It survives here as the
// oracle the block codec must match: same bytes, same hashes, same galaxies,
// same failure on a truncated stream.

func writeBinaryPerRecord(w io.Writer, c *Catalog) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagic)
	hdr := make([]byte, 20)
	binary.LittleEndian.PutUint32(hdr[0:4], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], math.Float64bits(c.Box.L))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(c.Galaxies)))
	bw.Write(hdr)
	rec := make([]byte, RecordSize)
	for _, g := range c.Galaxies {
		PutRecord(rec, g)
		bw.Write(rec)
	}
	return bw.Flush()
}

func hashPerRecord(c *Catalog) string {
	h := sha256.New()
	h.Write([]byte(hashVersion))
	rec := make([]byte, RecordSize)
	for _, g := range c.Galaxies {
		PutRecord(rec, g)
		h.Write(rec)
	}
	var tail [16]byte
	binary.LittleEndian.PutUint64(tail[0:8], math.Float64bits(c.Box.L))
	binary.LittleEndian.PutUint64(tail[8:16], uint64(len(c.Galaxies)))
	h.Write(tail[:])
	return hex.EncodeToString(h.Sum(nil))
}

// perRecordCursor is the binary cursor as it was: one ReadFull per record.
type perRecordCursor struct {
	br        *bufio.Reader
	remaining uint64
	rec       [RecordSize]byte
}

func openPerRecord(r io.Reader) (*perRecordCursor, geom.Periodic, error) {
	br := bufio.NewReader(r)
	l, n, err := readBinaryHeader(br)
	return &perRecordCursor{br: br, remaining: n}, geom.Periodic{L: l}, err
}

func (c *perRecordCursor) Next(buf []Galaxy) (int, error) {
	if c.remaining == 0 {
		return 0, io.EOF
	}
	n := int(min(uint64(len(buf)), c.remaining))
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(c.br, c.rec[:]); err != nil {
			return i, fmt.Errorf("catalog: reading record: %w", err)
		}
		buf[i] = GetRecord(c.rec[:])
	}
	c.remaining -= uint64(n)
	if c.remaining == 0 {
		return n, io.EOF
	}
	return n, nil
}

// drainCounting pulls next to its end with bufLen-galaxy buffers and returns
// the galaxies delivered and the error that ended the pass (nil for io.EOF).
func drainCounting(next func([]Galaxy) (int, error), bufLen int) ([]Galaxy, error) {
	var out []Galaxy
	buf := make([]Galaxy, bufLen)
	for {
		n, err := next(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// readBinary and readCSV drain one pass of each format from a reader, the
// way ReadAll drains a file of that format.
func readBinary(r io.Reader) (*Catalog, error) {
	cur, err := openBinary(r, nil)
	if err != nil {
		return nil, err
	}
	return drain(cur)
}

func readCSV(r io.Reader) (*Catalog, error) { return drain(newCSVCursor(r, nil)) }

// blockSizes are the record counts on every side of a block boundary.
var blockSizes = []int{0, 1, BlockRecords - 1, BlockRecords, BlockRecords + 1, 3*BlockRecords + 7}

func blockFixture(n int) *Catalog {
	c := Uniform(n, 120, int64(n)+1)
	if n > 2 {
		c.Galaxies[1].Weight = -0.5
		c.Galaxies[n-1].Pos.X = math.Copysign(0, -1)
	}
	return c
}

// TestBlockCodecMatchesPerRecordOracle: at every block-boundary size the
// block writer's bytes are the per-record writer's; memory, binary-file and
// CSV sources all hash to the per-record hash; and the file decodes to the
// same galaxies through the block cursor (at awkward Next lengths), ReadAll
// and readBinary as through the per-record cursor.
func TestBlockCodecMatchesPerRecordOracle(t *testing.T) {
	dir := t.TempDir()
	for _, n := range blockSizes {
		cat := blockFixture(n)
		var got, want bytes.Buffer
		if err := writeBinary(&got, cat); err != nil {
			t.Fatal(err)
		}
		if err := writeBinaryPerRecord(&want, cat); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: block writer's bytes differ from the per-record writer's", n)
		}

		bin := filepath.Join(dir, fmt.Sprintf("c%d.glxc", n))
		csv := filepath.Join(dir, fmt.Sprintf("c%d.csv", n))
		if err := os.WriteFile(bin, want.Bytes(), 0o644); err != nil { // a file from before the block codec
			t.Fatal(err)
		}
		f, err := os.Create(csv)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeCSV(f, cat); err != nil {
			t.Fatal(err)
		}
		f.Close()
		wantHash := hashPerRecord(cat)
		for name, src := range map[string]Source{"memory": NewMemorySource(cat), "binary": NewFileSource(bin), "csv": NewFileSource(csv)} {
			h, err := Hash(src)
			if err != nil {
				t.Fatal(err)
			}
			if h != wantHash {
				t.Errorf("n=%d: %s source hashes to %s, the per-record hash is %s", n, name, h, wantHash)
			}
		}

		old, _, err := openPerRecord(bytes.NewReader(want.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := drainCounting(old.Next, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, bufLen := range []int{1, 7, BlockRecords - 1, BlockRecords, BlockRecords + 1, 1 << 16} {
			if n > 3*BlockRecords && bufLen == 1 {
				continue
			}
			cur, err := openBinary(bytes.NewReader(got.Bytes()), nil)
			if err != nil {
				t.Fatal(err)
			}
			gals, err := drainCounting(cur.Next, bufLen)
			if err != nil {
				t.Fatal(err)
			}
			assertSameCatalog(t, &Catalog{Galaxies: gals, Box: cur.Box()}, &Catalog{Galaxies: ref, Box: cat.Box})
		}
		all, err := ReadAll(NewFileSource(bin))
		if err != nil {
			t.Fatal(err)
		}
		assertSameCatalog(t, all, cat)
		if c := cap(all.Galaxies); c > n+n/4+16 { // one allocation, rounded up to a size class
			t.Errorf("n=%d: ReadAll sized its array to %d for %d galaxies", n, c, n)
		}
		rb, err := readBinary(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		assertSameCatalog(t, rb, cat)
	}
}

// TestTruncatedCatalogFailsLikePerRecord cuts a three-block file on and
// inside record boundaries, early and late in a block: the block cursor
// delivers the same count of good records as the per-record cursor did, and
// ends on the same error — io.EOF on a boundary, io.ErrUnexpectedEOF inside
// a record, never a clean end of pass.
func TestTruncatedCatalogFailsLikePerRecord(t *testing.T) {
	n := 3*BlockRecords + 7
	var buf bytes.Buffer
	if err := writeBinary(&buf, blockFixture(n)); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{24, 24 + 1, 24 + 31, 24 + 32, 24 + 33,
		24 + RecordSize*BlockRecords - 1, 24 + RecordSize*BlockRecords, 24 + RecordSize*BlockRecords + 17,
		24 + RecordSize*(2*BlockRecords+5), len(whole) - 17, len(whole) - 1} {
		for _, bufLen := range []int{7, BlockRecords, 1 << 16} {
			old, _, err := openPerRecord(bytes.NewReader(whole[:cut]))
			if err != nil {
				t.Fatal(err)
			}
			wantGals, wantErr := drainCounting(old.Next, bufLen)
			cur, err := openBinary(bytes.NewReader(whole[:cut]), nil)
			if err != nil {
				t.Fatal(err)
			}
			gotGals, gotErr := drainCounting(cur.Next, bufLen)
			if len(gotGals) != len(wantGals) {
				t.Errorf("cut %d buf %d: %d good records, the per-record cursor gave %d", cut, bufLen, len(gotGals), len(wantGals))
			}
			if gotErr == nil || wantErr == nil {
				t.Fatalf("cut %d buf %d: truncated stream drained cleanly (block %v, per-record %v)", cut, bufLen, gotErr, wantErr)
			}
			if errors.Is(gotErr, io.EOF) != errors.Is(wantErr, io.EOF) ||
				errors.Is(gotErr, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) {
				t.Errorf("cut %d buf %d: error %v, the per-record cursor's was %v", cut, bufLen, gotErr, wantErr)
			}
			if _, again := cur.Next(make([]Galaxy, 4)); again == nil || again == io.EOF {
				t.Errorf("cut %d buf %d: the failure did not stick (second Next: %v)", cut, bufLen, again)
			}
		}
		if _, err := readBinary(bytes.NewReader(whole[:cut])); err == nil {
			t.Errorf("cut %d: readBinary accepted a truncated catalog", cut)
		}
	}
}

// TestDrainPreallocation: a cursor that knows its length is drained in one
// allocation of the array, sized to the count (up to a size class), for any
// count up to maxPrealloc; and a count past the bound is not trusted in
// advance: a header claiming 2^33 galaxies (the most the header check
// passes) ahead of three records fails on the missing ones instead of on a
// 256 GB allocation. The allocation count is read only outside -race
// builds, whose instrumentation adds one; the capacity is checked in both.
func TestDrainPreallocation(t *testing.T) {
	for _, n := range []int{1, BlockRecords + 1, maxPrealloc} {
		cur := &memoryCursor{cat: Uniform(n, 120, 1)}
		var got *Catalog
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			cur.pos = 0
			if got, err = drain(cur); err != nil {
				t.Fatal(err)
			}
		})
		if c := cap(got.Galaxies); (!raceBuild && allocs != 2) || c < n || c > n+n/8+16 {
			t.Errorf("n=%d: %v allocations (want the catalog and its array), array cap %d", n, allocs, c)
		}
	}
	var buf bytes.Buffer
	if err := writeBinary(&buf, blockFixture(3)); err != nil {
		t.Fatal(err)
	}
	lying := buf.Bytes()
	binary.LittleEndian.PutUint64(lying[16:24], 1<<33)
	cur, err := openBinary(bytes.NewReader(lying), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(cur); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Errorf("a header claiming 2^33 galaxies drained with %v", err)
	}
}

// FuzzBinaryCursor: no input panics the block cursor; it delivers exactly
// the galaxies, and ends on the same kind of error, as the per-record
// cursor; and it never delivers more records than the input has bytes for,
// whatever count the header claims.
func FuzzBinaryCursor(f *testing.F) {
	for _, n := range []int{0, 1, 5, BlockRecords + 1} {
		var buf bytes.Buffer
		if err := writeBinary(&buf, blockFixture(n)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(7))
		f.Add(buf.Bytes()[:buf.Len()-buf.Len()/3], uint16(BlockRecords))
	}
	f.Add([]byte("GLXC\x01\x00\x00\x00"), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, bufLen uint16) {
		cur, err := openBinary(bytes.NewReader(data), nil)
		old, _, oldErr := openPerRecord(bytes.NewReader(data))
		if (err == nil) != (oldErr == nil) {
			t.Fatalf("header: block cursor %v, per-record cursor %v", err, oldErr)
		}
		if err != nil {
			return
		}
		step := int(bufLen)%(2*BlockRecords) + 1
		got, gotErr := drainCounting(cur.Next, step)
		want, wantErr := drainCounting(old.Next, step)
		if len(got) > (len(data)-24)/RecordSize {
			t.Fatalf("%d records out of a %d-byte input", len(got), len(data))
		}
		if len(got) != len(want) || (gotErr == nil) != (wantErr == nil) ||
			errors.Is(gotErr, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) {
			t.Fatalf("block cursor: %d records, %v; per-record cursor: %d records, %v", len(got), gotErr, len(want), wantErr)
		}
		for i := range got {
			if a, b := got[i], want[i]; math.Float64bits(a.Pos.X) != math.Float64bits(b.Pos.X) ||
				math.Float64bits(a.Pos.Y) != math.Float64bits(b.Pos.Y) ||
				math.Float64bits(a.Pos.Z) != math.Float64bits(b.Pos.Z) ||
				math.Float64bits(a.Weight) != math.Float64bits(b.Weight) {
				t.Fatalf("record %d: %+v vs %+v", i, a, b)
			}
		}
	})
}
