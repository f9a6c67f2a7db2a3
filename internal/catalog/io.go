package catalog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"galactos/internal/geom"
)

// Binary catalog format: a fixed little-endian header followed by packed
// (x, y, z, w) float64 records. Designed for the multi-hundred-MB catalogs
// of the scaling study: sequential, no per-record framing.
//
//	offset  size  field
//	0       4     magic "GLXC"
//	4       4     version (uint32) = 1
//	8       8     box side L (float64; 0 = open boundaries)
//	16      8     galaxy count (uint64)
//	24      32*N  records
const (
	binaryMagic   = "GLXC"
	binaryVersion = 1
)

// RecordSize is the byte length of one packed (x, y, z, w) record — the
// unit of the binary catalog body and of the streaming pipeline's spill
// files.
const RecordSize = 32

// PutRecord packs g into dst[:RecordSize].
func PutRecord(dst []byte, g Galaxy) {
	binary.LittleEndian.PutUint64(dst[0:8], math.Float64bits(g.Pos.X))
	binary.LittleEndian.PutUint64(dst[8:16], math.Float64bits(g.Pos.Y))
	binary.LittleEndian.PutUint64(dst[16:24], math.Float64bits(g.Pos.Z))
	binary.LittleEndian.PutUint64(dst[24:32], math.Float64bits(g.Weight))
}

// BlockRecords is the unit the binary codec converts, hashes and moves at a
// time: a Read, Write or hash update carries 64 KB of packed records, or the
// whole catalog when that is less, rather than one record.
const BlockRecords = 2048

// putRecords packs gs into dst[:RecordSize*len(gs)] and returns that slice.
func putRecords(dst []byte, gs []Galaxy) []byte {
	for i, g := range gs {
		PutRecord(dst[i*RecordSize:], g)
	}
	return dst[:len(gs)*RecordSize]
}

// writeBinary writes the catalog in the binary format.
func writeBinary(w io.Writer, c *Catalog) error {
	var hdr [24]byte
	copy(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], math.Float64bits(c.Box.L))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(c.Galaxies)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	raw := make([]byte, RecordSize*min(BlockRecords, len(c.Galaxies)))
	for gs := c.Galaxies; len(gs) > 0; {
		k := min(BlockRecords, len(gs))
		if _, err := w.Write(putRecords(raw, gs[:k])); err != nil {
			return err
		}
		gs = gs[k:]
	}
	return nil
}

// readBinaryHeader parses the fixed header, returning the box side and the
// declared galaxy count.
func readBinaryHeader(br io.Reader) (l float64, n uint64, err error) {
	var head [24]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return 0, 0, fmt.Errorf("catalog: reading header: %w", err)
	}
	if string(head[0:4]) != binaryMagic {
		return 0, 0, fmt.Errorf("catalog: bad magic %q", head[0:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != binaryVersion {
		return 0, 0, fmt.Errorf("catalog: unsupported version %d", v)
	}
	l = math.Float64frombits(binary.LittleEndian.Uint64(head[8:16]))
	n = binary.LittleEndian.Uint64(head[16:24])
	const maxGalaxies = 1 << 33
	if n > maxGalaxies {
		return 0, 0, fmt.Errorf("catalog: implausible galaxy count %d", n)
	}
	return l, n, nil
}

// GetRecord unpacks one record from rec[:RecordSize].
func GetRecord(rec []byte) Galaxy {
	return Galaxy{
		Pos: geom.Vec3{
			X: math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
			Z: math.Float64frombits(binary.LittleEndian.Uint64(rec[16:24])),
		},
		Weight: math.Float64frombits(binary.LittleEndian.Uint64(rec[24:32])),
	}
}

// writeCSV writes "x,y,z,w" rows preceded by a "# L=<box>" comment header.
func writeCSV(w io.Writer, c *Catalog) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# galactos catalog L=%g N=%d\n", c.Box.L, len(c.Galaxies)); err != nil {
		return err
	}
	for _, g := range c.Galaxies {
		if _, err := fmt.Fprintf(bw, "%g,%g,%g,%g\n", g.Pos.X, g.Pos.Y, g.Pos.Z, g.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// isCSV is the one format rule: a path ending in ".csv" holds CSV rows
// (writeCSV's dialect), any other path the binary format. FileSource.Open
// reads by it and Save writes by it, so a file always reads back in the
// format it was written in.
func isCSV(path string) bool { return strings.HasSuffix(path, ".csv") }

// Save writes the catalog to path in the format the path names (isCSV).
func Save(path string, c *Catalog) error {
	write := writeBinary
	if isCSV(path) {
		write = writeCSV
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SaveBinary is Save for a path the format rule reads as binary. It refuses
// a ".csv" path, whose file every reader would parse as CSV.
func SaveBinary(path string, c *Catalog) error {
	if isCSV(path) {
		return fmt.Errorf("catalog: SaveBinary to %s: a .csv path holds CSV (use Save)", path)
	}
	return Save(path, c)
}
