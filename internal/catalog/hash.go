package catalog

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"io"
	"math"

	"galactos/internal/geom"
	"galactos/internal/retry"
)

// hashVersion seeds every catalog hash so a change to the hashed layout can
// never collide with hashes minted under the old scheme.
const hashVersion = "GCAT1"

// ErrChanged ends a pass over a pinned source (Pin) that read another
// catalog. It is not transient, so no retry repeats that pass.
var ErrChanged = errors.New("catalog changed since it was pinned (content hash mismatch)")

// Hash streams one pass over the source (Scan) and returns the SHA-256
// content hash of the catalog: a catalog's identity. It depends only on the
// catalog's content — an in-memory catalog, the binary file it was saved to,
// and a CSV carrying the same galaxies all hash identically — which makes it
// the catalog half of the service result-cache key and the catalog pin of a
// shard checkpoint directory. A catalog no run would accept (Extent) has no
// hash. A transient open/read failure restarts the pass under the default
// retry policy, hashing from the first record again.
func Hash(src Source) (string, error) {
	var sum *Summary
	err := retry.Policy{}.Do(context.Background(), "catalog hash", func() (err error) {
		sum, err = Scan(context.Background(), src, nil, true)
		return err
	})
	if err != nil {
		return "", err
	}
	return sum.Hash, nil
}

// Summary is what a first pass over a catalog learns (Scan).
type Summary struct {
	Box  geom.Periodic
	N    int
	Ext  Extent
	Hash string // set when the pass was asked to identify the catalog
}

// Scan makes one pass over src (Each) and applies the acceptance rule
// (Extent). With identify set it also digests the catalog, so a pass made
// anyway learns the catalog's identity; over a pinned source it returns the
// pinned hash, which the same pass verifies.
func Scan(ctx context.Context, src Source, block []Galaxy, identify bool) (*Summary, error) {
	sum := &Summary{Ext: NewExtent()}
	var d *digest
	if p, ok := src.(*pinnedSource); ok && identify {
		sum.Hash = p.hash
	} else if identify {
		d = newDigest()
	}
	var err error
	sum.Box, err = Each(ctx, src, block, func(gals []Galaxy) error {
		if d != nil {
			d.add(gals)
		}
		sum.N += len(gals)
		return sum.Ext.Add(gals)
	})
	if err == nil {
		err = sum.Ext.Check(sum.Box)
	}
	if err != nil {
		return nil, err
	}
	if d != nil {
		sum.Hash = d.sum(sum.Box)
	}
	return sum, nil
}

// Each makes one pass over src, handing fn every block it decodes into
// block (nil: a buffer of BlockRecords), and returns the box, read after the
// pass because a CSV's L= token may come last. ctx is checked once per block. Each does not retry: a
// caller that absorbs transient failures retries the whole pass.
func Each(ctx context.Context, src Source, block []Galaxy, fn func([]Galaxy) error) (geom.Periodic, error) {
	cur, err := src.Open()
	if err != nil {
		return geom.Periodic{}, err
	}
	defer cur.Close() // read-only: a failed close loses nothing
	if block == nil {
		block = make([]Galaxy, BlockRecords)
	}
	for {
		if err := ctx.Err(); err != nil {
			return geom.Periodic{}, err
		}
		n, nextErr := cur.Next(block)
		if err := fn(block[:n]); err != nil {
			return geom.Periodic{}, err
		}
		if nextErr == io.EOF {
			return cur.Box(), nil
		}
		if nextErr != nil {
			return geom.Periodic{}, nextErr
		}
	}
}

// Pin returns src pinned to the catalog whose Hash is hash: each pass
// digests what it hands out, from its first record, and one that reaches
// the end of another catalog ends with ErrChanged instead of io.EOF. It is
// for a source that can change between passes — a file, a caller's Source —
// so that the passes that read the catalog also prove which one they read.
func Pin(src Source, hash string) Source { return &pinnedSource{src: src, hash: hash} }

type pinnedSource struct {
	src  Source
	hash string
}

func (p *pinnedSource) Open() (Cursor, error) {
	cur, err := p.src.Open()
	if err != nil {
		return nil, err
	}
	return &pinnedCursor{Cursor: cur, d: newDigest(), hash: p.hash}, nil
}

type pinnedCursor struct {
	Cursor
	d    *digest
	hash string
}

// left forwards the count, so drain still sizes a pinned catalog exactly.
func (c *pinnedCursor) left() (uint64, bool) { return remaining(c.Cursor) }

func (c *pinnedCursor) Next(buf []Galaxy) (int, error) {
	n, err := c.Cursor.Next(buf)
	c.d.add(buf[:n])
	if err == io.EOF && c.d.sum(c.Box()) != c.hash {
		return n, ErrChanged
	}
	return n, err
}

// digest is Hash's streaming core, taken by Scan and by a pinned cursor: the
// SHA-256 of the packed (x, y, z, w) records in order, then the box side and
// the galaxy count. sum, called once, takes the box after the pass.
type digest struct {
	h   hash.Hash
	raw []byte // one packed chunk of at most BlockRecords records
	n   uint64
}

func newDigest() *digest {
	d := &digest{h: sha256.New()}
	d.h.Write([]byte(hashVersion))
	return d
}

// add hashes the next galaxies of the catalog, a chunk at a time.
func (d *digest) add(gals []Galaxy) {
	for len(gals) > 0 {
		k := min(len(gals), BlockRecords)
		if len(d.raw) < k*RecordSize {
			d.raw = make([]byte, k*RecordSize)
		}
		d.h.Write(putRecords(d.raw, gals[:k]))
		d.n += uint64(k)
		gals = gals[k:]
	}
}

// sum ends the digest of a catalog in box b and returns it in hex.
func (d *digest) sum(b geom.Periodic) string {
	var tail [16]byte
	binary.LittleEndian.PutUint64(tail[0:8], math.Float64bits(b.L))
	binary.LittleEndian.PutUint64(tail[8:16], d.n)
	d.h.Write(tail[:])
	return hex.EncodeToString(d.h.Sum(nil))
}
