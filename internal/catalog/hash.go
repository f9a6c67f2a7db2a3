package catalog

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"

	"galactos/internal/geom"
	"galactos/internal/retry"
)

// hashVersion seeds every catalog hash so a change to the hashed layout can
// never collide with hashes minted under the old scheme.
const hashVersion = "GCAT1"

// Hash streams one pass over the source and returns the SHA-256 content
// hash of the catalog (Digest): a catalog's identity. It depends only on the
// catalog's content — an in-memory catalog, the binary file it was saved to,
// and a CSV carrying the same galaxies all hash identically — which makes it
// the catalog half of the service result-cache key and the catalog pin of a
// shard checkpoint directory. The pass applies the acceptance rule (Extent),
// so a catalog no run would accept has no hash. The catalog is never
// materialized: peak memory is one block. A transient open/read failure
// restarts the pass under the default retry policy (each attempt reopens the
// source and hashes from the first record, so a torn pass can never leak into
// the digest).
func Hash(src Source) (string, error) {
	var sum string
	err := retry.Policy{}.Do(context.Background(), "catalog hash", func() (err error) {
		sum, err = hashOnce(src)
		return err
	})
	return sum, err
}

// hashOnce is one hashing pass.
func hashOnce(src Source) (string, error) {
	cur, err := src.Open()
	if err != nil {
		return "", err
	}
	defer cur.Close()

	d := NewDigest()
	ext := NewExtent()
	block := uint64(BlockRecords)
	if left, ok := remaining(cur); ok {
		block = min(block, left)
	}
	buf := make([]Galaxy, block)
	for {
		n, err := cur.Next(buf)
		if ferr := ext.Add(buf[:n]); ferr != nil {
			return "", ferr
		}
		d.Add(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
	}
	if err := ext.Check(cur.Box()); err != nil {
		return "", err
	}
	return d.Sum(cur.Box()), nil
}

// Digest is Hash's streaming core, for a pass that already visits every
// galaxy for its own reasons (the shard scan): the SHA-256 of the packed
// (x, y, z, w) records in order, followed by the box side and the galaxy
// count. Add takes the galaxies in catalog order, in blocks of any size, and
// Sum, called once, takes the box — read after the pass, because a CSV
// cursor only knows its L= token once the pass is complete.
type Digest struct {
	h   hash.Hash
	raw []byte // the records of one Add, packed
	n   uint64
}

// NewDigest starts the digest of a catalog.
func NewDigest() *Digest {
	d := &Digest{h: sha256.New()}
	d.h.Write([]byte(hashVersion))
	return d
}

// Add hashes the next galaxies of the catalog, packed in one buffer that
// grows to the largest block added (the callers' decode blocks, at most
// BlockRecords).
func (d *Digest) Add(gals []Galaxy) {
	if len(d.raw) < len(gals)*RecordSize {
		d.raw = make([]byte, len(gals)*RecordSize)
	}
	d.h.Write(putRecords(d.raw, gals))
	d.n += uint64(len(gals))
}

// Sum ends the digest of a catalog in box b and returns it in hex.
func (d *Digest) Sum(b geom.Periodic) string {
	var tail [16]byte
	binary.LittleEndian.PutUint64(tail[0:8], math.Float64bits(b.L))
	binary.LittleEndian.PutUint64(tail[8:16], d.n)
	d.h.Write(tail[:])
	return hex.EncodeToString(d.h.Sum(nil))
}
