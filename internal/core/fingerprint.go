package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"galactos/internal/geom"
)

// fingerprintVersion is baked into every fingerprint so a change to the
// hashed field set (or to Normalize's defaulting rules) can never collide
// with fingerprints minted under the old scheme. GCFP2 dropped Workers and
// Scheduling, GCFP3 the deprecated Finder, LeafSize and GridCell, GCFP4 the
// frozen BucketSize, ChunkSize and BlockCell and a plane-parallel run's
// Observer: an older key simply misses and recomputes.
const fingerprintVersion = "GCFP4"

// Fingerprint returns the run identity of the configuration: the config is
// normalized first, then the science fields — the only ones that move a
// result bit — are folded into a SHA-256 in fixed declaration order. Two
// configs that normalize to the same effective configuration, however the
// caller assembled them, fingerprint identically; any change to a field the
// engine reads changes the fingerprint.
//
// It is the one answer to "is this the same run?": the config half of the
// service result-cache key and of its journal records, and the config pin
// of a shard checkpoint manifest.
// Workers is not hashed: the engine commits its units in one fixed order at
// any worker count, so the same request on hosts of different widths shares
// one key and one answer. Nor are the deprecated knobs, which the engine
// ignores, nor Observer under the plane-parallel line of sight, which never
// reads it.
//
// A config that does not normalize has no canonical form; the zero-config
// error is returned unchanged.
func (c Config) Fingerprint() (string, error) {
	n, err := c.Normalize()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(fingerprintVersion))
	var buf [8]byte
	le := binary.LittleEndian
	putF := func(v float64) {
		le.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	putI := func(v int) {
		le.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	putB := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	putF(n.RMax)
	putF(n.RMin)
	putI(n.NBins)
	putI(n.LMax)
	putI(int(n.LOS))
	if n.LOS == LOSPlaneParallel {
		n.Observer = geom.Vec3{}
	}
	putF(n.Observer.X)
	putF(n.Observer.Y)
	putF(n.Observer.Z)
	putB(n.SelfCount)
	putB(n.IsotropicOnly)
	return hex.EncodeToString(h.Sum(nil)), nil
}
