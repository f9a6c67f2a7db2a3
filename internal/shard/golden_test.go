package shard

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/sphharm"
)

// -update-golden rewrites testdata/golden.json with the hash computed on
// this host (any host: every lane dispatch gives the same bits).
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json")

const goldenPath = "testdata/golden.json"

// goldenRun is the one pinned sharded run: a seeded periodic clustered
// catalog streamed from a binary file through 8 checkpointed parts.
const goldenRun = "clustered-periodic-file-8-parts"

// resultHash is the SHA-256 of a result's counters and multipole bits: Pairs,
// NPrimaries, the SumWeight bits, the Aniso length, then the real and
// imaginary bits of every Aniso entry in storage order.
func resultHash(r *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wu(r.Pairs)
	wu(uint64(r.NPrimaries))
	wu(math.Float64bits(r.SumWeight))
	wu(uint64(len(r.Aniso)))
	for _, v := range r.Aniso {
		wu(math.Float64bits(real(v)))
		wu(math.Float64bits(imag(v)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShardedGoldenHash pins the sharded backend bit for bit: the scan,
// plan, spill and part-read passes must hand the engine exactly the part
// catalogs (records and their order) they always have, under every lane
// dispatch this host has. Run with -update-golden to regenerate
// testdata/golden.json after a deliberate change of the answer's bits.
func TestShardedGoldenHash(t *testing.T) {
	path, cfg := goldenFixture(t)
	defer sphharm.SetLaneDispatch(sphharm.HasAVX512())

	var got string
	for _, vector := range []bool{false, true} {
		if sphharm.SetLaneDispatch(vector) != vector {
			continue // no vector bodies on this host
		}
		res, _, err := Compute(context.Background(), catalog.NewFileSource(path), cfg,
			Options{NShards: 8, CheckpointDir: t.TempDir()})
		if err != nil {
			t.Fatalf("[%s]: %v", sphharm.LaneDispatch(), err)
		}
		if h := resultHash(res); got == "" {
			got = h
		} else if h != got {
			t.Errorf("hash %s under %s, %s under generic", h, sphharm.LaneDispatch(), got)
		}
	}

	golden := readGolden(t)
	if *updateGolden {
		golden[goldenRun] = got
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	switch want := golden[goldenRun]; {
	case want == "":
		t.Errorf("%s: no golden hash — run `make golden`", goldenRun)
	case want != got:
		t.Errorf("%s: hash %s, golden %s", goldenRun, got, want)
	}
}

// goldenFixture writes the pinned run's catalog to a binary file and
// returns its path and the run's config.
func goldenFixture(t *testing.T) (string, core.Config) {
	t.Helper()
	cat := catalog.Clustered(6000, 200, catalog.DefaultClusterParams(), 2024)
	path := filepath.Join(t.TempDir(), "golden.glxc")
	if err := catalog.SaveBinary(path, cat); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.RMax, cfg.NBins, cfg.LMax = 12, 6, 4
	return path, cfg
}

// readGolden returns testdata/golden.json's hashes (none when it is
// missing).
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	golden := map[string]string{}
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("parse %s: %v", goldenPath, err)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return golden
}
