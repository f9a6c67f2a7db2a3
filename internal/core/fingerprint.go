package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// fingerprintVersion is baked into every fingerprint so a change to the
// hashed field set (or to Normalize's defaulting rules) can never collide
// with fingerprints minted under the old scheme. GCFP2 dropped Workers and
// Scheduling, GCFP3 the deprecated Finder, LeafSize and GridCell: an older
// key simply misses and recomputes.
const fingerprintVersion = "GCFP3"

// Fingerprint returns the canonical content hash of the configuration: the
// config is normalized first, then every field that can move a result bit is
// folded into a SHA-256 in fixed declaration order. Two configs that
// normalize to the same effective configuration — whether tunables were left
// zero or spelled out explicitly, and regardless of how the caller assembled
// them — fingerprint identically; any change to a hashed field changes the
// fingerprint.
//
// The fingerprint is the config half of the service result-cache key and
// pins the measured scenario in perfstat reports. Workers is not hashed: the
// engine commits its units in one fixed order at any worker count, so the
// same request on hosts of different widths shares one key and one answer.
// Nor are the deprecated Finder, LeafSize and GridCell, which the engine
// ignores.
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
	putF(n.Observer.X)
	putF(n.Observer.Y)
	putF(n.Observer.Z)
	putB(n.SelfCount)
	putB(n.IsotropicOnly)
	// The execution fields below stay because each still moves bits.
	putI(n.BucketSize) // kernel chunk boundaries regroup the lane sums
	putI(n.ChunkSize)  // unit cuts group the per-unit sums the commit adds
	putF(n.BlockCell)  // Morton cell size sets the primary order and the unit cuts
	return hex.EncodeToString(h.Sum(nil)), nil
}
