package catalog

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"galactos/internal/faultpoint"
	"galactos/internal/geom"
	"galactos/internal/retry"
)

// Faultpoints of the streaming ingestion path. Opens and whole-pass reads
// are retried by every consumer (ReadAll, Hash, the shard streaming
// passes), so transient faults here are absorbed, not fatal.
var (
	fpSourceOpen = faultpoint.New("catalog.source.open")
	fpSourceRead = faultpoint.New("catalog.source.read")
)

// Source streams a catalog in chunks without requiring it to be resident in
// memory: the ingestion abstraction of the execution layer (see DESIGN.md,
// "Execution layer"). A Source can be opened repeatedly — the streaming
// sharded pipeline makes several sequential passes (bounds, one histogram
// per k-d level, spill) — and each Open starts a fresh pass from the first galaxy.
type Source interface {
	// Open starts a new pass over the galaxies.
	Open() (Cursor, error)
}

// Cursor is one in-progress pass over a Source's galaxies.
type Cursor interface {
	// Box returns the periodic geometry. For the binary format it is known
	// as soon as the cursor opens; for CSV it is complete once the cursor
	// has passed the comment line carrying the L= token (drain the cursor
	// before trusting it).
	Box() geom.Periodic
	// Next fills buf with the next galaxies and returns how many were
	// written. It returns 0, io.EOF at the end of the pass.
	Next(buf []Galaxy) (int, error)
	// Close releases the pass's resources.
	Close() error
}

// ReadAll materializes a Source into an in-memory catalog, refusing one
// that breaks the acceptance rule (Extent).
func ReadAll(src Source) (*Catalog, error) {
	return ReadAllContext(context.Background(), src)
}

// ReadAllContext is ReadAll under a context: transient open/read failures
// restart the pass under the default retry policy (the source re-opens from
// the first galaxy, so a partial pass never leaks into the result), and ctx
// cancels the backoff waits promptly.
func ReadAllContext(ctx context.Context, src Source) (*Catalog, error) {
	if m, ok := src.(*MemorySource); ok && m.Cat != nil {
		if err := m.Cat.Validate(); err != nil {
			return nil, err
		}
		return m.Cat, nil
	}
	var c *Catalog
	err := retry.Policy{}.Do(ctx, "catalog read", func() error {
		cur, err := src.Open()
		if err != nil {
			return err
		}
		c, err = drain(cur)
		return err
	})
	return c, err
}

// maxPrealloc bounds, in records (2 MB), how far drain trusts a cursor's
// own count before any record has arrived. A binary file's count is a
// header field nothing has checked yet: a torn or hostile header claiming
// 2^60 galaxies must fail on its missing records, not on one huge
// allocation.
const maxPrealloc = 1 << 16

// drain materializes the rest of cur's pass and closes it, decoding straight
// into the catalog's own array. A cursor that knows its length is taken at
// its word up to maxPrealloc records, so a catalog that size or smaller is
// one exact allocation; past that, and for cursors that do not know (CSV),
// the array doubles as records actually arrive. The catalog must pass the
// acceptance rule (Extent).
func drain(cur Cursor) (*Catalog, error) {
	defer cur.Close()
	c := &Catalog{}
	ext := NewExtent()
	for {
		if len(c.Galaxies) == cap(c.Galaxies) {
			grow := max(len(c.Galaxies), BlockRecords)
			if left, ok := remaining(cur); ok {
				grow = int(min(left, uint64(max(grow, maxPrealloc))))
			}
			c.Galaxies = slices.Grow(c.Galaxies, grow)
		}
		at := len(c.Galaxies)
		n, err := cur.Next(c.Galaxies[at:cap(c.Galaxies)])
		c.Galaxies = c.Galaxies[:at+n]
		if ferr := ext.Add(c.Galaxies[at:]); ferr != nil {
			return nil, ferr
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	c.Box = cur.Box()
	if err := ext.Check(c.Box); err != nil {
		return nil, err
	}
	return c, nil
}

// remaining reports how many records are left in cur's pass, for the
// cursors that know (they have a left method, which a wrapper forwards).
func remaining(cur Cursor) (uint64, bool) {
	if c, ok := cur.(interface{ left() (uint64, bool) }); ok {
		return c.left()
	}
	return 0, false
}

// MemorySource adapts an in-memory catalog to the Source interface — the
// degenerate (everything already resident) case, and the fast path the
// execution layer unwraps where possible.
type MemorySource struct{ Cat *Catalog }

// NewMemorySource wraps an in-memory catalog.
func NewMemorySource(c *Catalog) *MemorySource { return &MemorySource{Cat: c} }

// Open starts a pass over the in-memory galaxies.
func (s *MemorySource) Open() (Cursor, error) {
	if s.Cat == nil {
		return nil, fmt.Errorf("catalog: nil catalog in MemorySource")
	}
	return &memoryCursor{cat: s.Cat}, nil
}

type memoryCursor struct {
	cat *Catalog
	pos int
}

func (c *memoryCursor) Box() geom.Periodic { return c.cat.Box }

func (c *memoryCursor) left() (uint64, bool) { return uint64(len(c.cat.Galaxies) - c.pos), true }

func (c *memoryCursor) Next(buf []Galaxy) (int, error) {
	if c.pos >= len(c.cat.Galaxies) {
		return 0, io.EOF
	}
	n := copy(buf, c.cat.Galaxies[c.pos:])
	c.pos += n
	return n, nil
}

func (c *memoryCursor) Close() error { return nil }

// FileSource streams a catalog file in the format its extension names
// (isCSV, the rule Save writes by). Each Open reopens the file, so repeated
// passes never require the catalog resident.
type FileSource struct{ Path string }

// NewFileSource streams the catalog file at path.
func NewFileSource(path string) *FileSource { return &FileSource{Path: path} }

// Open starts a new pass by reopening the file.
func (s *FileSource) Open() (Cursor, error) {
	if err := fpSourceOpen.Inject(); err != nil {
		return nil, err
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return nil, err
	}
	if isCSV(s.Path) {
		return newCSVCursor(f, f), nil
	}
	cur, err := openBinary(f, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return cur, nil
}

// openBinary starts a streaming pass over a binary-format catalog carried
// by any io.Reader. closer, when non-nil, is closed by Cursor.Close.
func openBinary(r io.Reader, closer io.Closer) (Cursor, error) {
	l, n, err := readBinaryHeader(r)
	if err != nil {
		return nil, err
	}
	// The read buffer is one block, or the whole body when that is less.
	br := bufio.NewReaderSize(r, int(min(BlockRecords, n))*RecordSize)
	return &binaryCursor{br: br, closer: closer, box: geom.Periodic{L: l}, remaining: n}, nil
}

type binaryCursor struct {
	br        *bufio.Reader
	closer    io.Closer
	box       geom.Periodic
	remaining uint64
}

func (c *binaryCursor) Box() geom.Periodic { return c.box }

func (c *binaryCursor) left() (uint64, bool) { return c.remaining, true }

// Next decodes whole blocks out of the read buffer. A stream that ends
// early yields its whole records and then fails the way a record-at-a-time
// reader would: io.EOF on a record boundary, io.ErrUnexpectedEOF inside one.
func (c *binaryCursor) Next(buf []Galaxy) (int, error) {
	if err := fpSourceRead.Inject(); err != nil {
		return 0, err
	}
	if c.remaining == 0 {
		return 0, io.EOF
	}
	n := 0
	for n < len(buf) && c.remaining > 0 {
		k := int(min(uint64(len(buf)-n), c.remaining, BlockRecords))
		block, err := c.br.Peek(k * RecordSize)
		k = len(block) / RecordSize
		for i := 0; i < k; i++ {
			buf[n+i] = GetRecord(block[i*RecordSize:])
		}
		c.br.Discard(k * RecordSize)
		c.remaining -= uint64(k)
		n += k
		if err != nil {
			if err == io.EOF && len(block)%RecordSize != 0 {
				err = io.ErrUnexpectedEOF
			}
			return n, fmt.Errorf("catalog: reading record: %w", err)
		}
	}
	if c.remaining == 0 {
		return n, io.EOF
	}
	return n, nil
}

func (c *binaryCursor) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}

// newCSVCursor starts a streaming pass over CSV rows of "x,y,z[,w]" (weight
// defaults to 1). Lines starting with '#' are comments; a "L=<val>" token in
// a comment sets the box side.
func newCSVCursor(r io.Reader, closer io.Closer) Cursor {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // lines up to 1 MB; the buffer starts small and grows to them
	return &csvCursor{sc: sc, closer: closer}
}

type csvCursor struct {
	sc     *bufio.Scanner
	closer io.Closer
	box    geom.Periodic
	lineNo int
}

func (c *csvCursor) Box() geom.Periodic { return c.box }

func (c *csvCursor) Next(buf []Galaxy) (int, error) {
	if err := fpSourceRead.Inject(); err != nil {
		return 0, err
	}
	n := 0
	for n < len(buf) {
		if !c.sc.Scan() {
			if err := c.sc.Err(); err != nil {
				return n, err
			}
			return n, io.EOF
		}
		c.lineNo++
		line := strings.TrimSpace(c.sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			for _, tok := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(tok, "L="); ok {
					l, err := strconv.ParseFloat(v, 64)
					if err != nil {
						return n, fmt.Errorf("catalog: line %d: bad L: %w", c.lineNo, err)
					}
					c.box.L = l
				}
			}
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 3 && len(fields) != 4 {
			return n, fmt.Errorf("catalog: line %d: want 3 or 4 fields, got %d", c.lineNo, len(fields))
		}
		var vals [4]float64
		vals[3] = 1
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return n, fmt.Errorf("catalog: line %d field %d: %w", c.lineNo, i, err)
			}
			vals[i] = v
		}
		buf[n] = Galaxy{Pos: geom.Vec3{X: vals[0], Y: vals[1], Z: vals[2]}, Weight: vals[3]}
		n++
	}
	return n, nil
}

func (c *csvCursor) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}
