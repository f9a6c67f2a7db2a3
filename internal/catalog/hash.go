package catalog

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"

	"galactos/internal/retry"
)

// hashVersion seeds every catalog hash so a change to the hashed layout can
// never collide with hashes minted under the old scheme.
const hashVersion = "GCAT1"

// Hash streams one pass over the source and returns the SHA-256 content
// hash of the catalog: the packed (x, y, z, w) records in order, followed by
// the box side and the galaxy count. The hash depends only on the catalog's
// content — an in-memory catalog, the binary file it was saved to, and a CSV
// carrying the same galaxies all hash identically — which makes it the
// catalog half of the service result-cache key. The catalog is never
// materialized: peak memory is one block.
func Hash(src Source) (string, error) {
	return HashContext(context.Background(), src)
}

// HashContext is Hash under a context: a transient open/read failure restarts
// the hashing pass under the default retry policy (each attempt reopens the
// source and hashes from the first record, so a torn pass can never leak into
// the digest).
func HashContext(ctx context.Context, src Source) (string, error) {
	var sum string
	err := retry.Policy{}.Do(ctx, "catalog hash", func() (err error) {
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

	h := sha256.New()
	h.Write([]byte(hashVersion))
	block := uint64(BlockRecords)
	if left, ok := remaining(cur); ok {
		block = min(block, left)
	}
	buf := make([]Galaxy, block)
	raw := make([]byte, RecordSize*len(buf))
	var count uint64
	for {
		n, err := cur.Next(buf)
		if ferr := CheckFinite(buf[:n], int(count)); ferr != nil {
			return "", ferr
		}
		h.Write(putRecords(raw, buf[:n]))
		count += uint64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
	}
	// The box is read after the drain: CSV cursors only know their L= token
	// once the pass is complete.
	if err := CheckBox(cur.Box()); err != nil {
		return "", err
	}
	var tail [16]byte
	binary.LittleEndian.PutUint64(tail[0:8], math.Float64bits(cur.Box().L))
	binary.LittleEndian.PutUint64(tail[8:16], count)
	h.Write(tail[:])
	return hex.EncodeToString(h.Sum(nil)), nil
}
