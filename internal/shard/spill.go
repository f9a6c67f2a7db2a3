package shard

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"galactos/internal/catalog"
	"galactos/internal/faultpoint"
	"galactos/internal/geom"
	"galactos/internal/partition"
	"galactos/internal/retry"
)

// Faultpoints of the part spill scratch files. Spill writes are absorbed by
// restarting the whole scatter pass (re-created files truncate, so a torn
// pass leaves no residue); spill reads retry per file.
var (
	fpSpillWrite = faultpoint.New("shard.spill.write")
	fpSpillRead  = faultpoint.New("shard.spill.read")
)

// spillDirName is the scratch subdirectory for part spill files inside a
// checkpoint directory.
const spillDirName = "spill"

// decodeBlock is the galaxies one pass over the source decodes at a time:
// catalog.BlockRecords, the block the binary cursor reads and a catalog
// digest packs (64 KB). One block serves every pass of a Compute, because a
// pass only looks at each galaxy once and keeps nothing of it.
const decodeBlock = catalog.BlockRecords

// spillBudget is the byte budget of the spill files' write buffers, divided
// across the 2·NShards files a spill pass keeps open (64 KB each at 8
// shards), so the spill pass holds the same memory at any shard count. The
// budget is far below a part's galaxies at any catalog size worth
// streaming, and a write of a few tens of KB already amortises the syscall.
const spillBudget = 1 << 20

// spillFloor is the smallest write buffer a spill file gets (one page): past
// spillBudget/(2·spillFloor) = 128 shards the budget grows with NShards
// rather than degrade every write to a handful of records.
const spillFloor = 4 << 10

// stream is one Compute's view of its source: the source plus the fixed
// buffers every pass over it reuses — one decode block, one spill budget and
// one spill-read block — so the pipeline's memory is two parts plus halo
// (see pipeline) and these, whatever the catalog's size and the shard count.
// One read block serves every part: a part's preparation starts only once
// the previous one has finished, so no two parts read at once.
type stream struct {
	src   catalog.Source
	block []catalog.Galaxy // filled by every pass over src in turn
	spill []byte           // the spill writers' buffers
	raw   []byte           // decodeBlock packed records: every spill file's reads
}

func newStream(src catalog.Source, nshards int) *stream {
	return &stream{
		src:   src,
		block: make([]catalog.Galaxy, decodeBlock),
		spill: make([]byte, max(spillBudget, 2*nshards*spillFloor)),
		raw:   make([]byte, decodeBlock*catalog.RecordSize),
	}
}

// plan runs the planning passes: partition.Cut over the scanned root, one
// histogram pass over the source per level of the cut tree.
func (s *stream) plan(ctx context.Context, sc *catalog.Summary, nshards int) (*partition.Plan, error) {
	return partition.Cut(sc.Ext.Root(sc.Box.L), sc.Box.L, nshards, func(visit func([]catalog.Galaxy)) error {
		_, err := catalog.Each(ctx, s.src, s.block, func(chunk []catalog.Galaxy) error {
			visit(chunk)
			return nil
		})
		return err
	})
}

// spillWriter buffers one part file's records in its share of the spill
// budget.
type spillWriter struct {
	f   *os.File
	buf []byte // a whole number of records
	n   int    // bytes buffered
}

func newSpillWriter(path string, buf []byte) (*spillWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spillWriter{f: f, buf: buf}, nil
}

func (w *spillWriter) add(g catalog.Galaxy) error {
	if err := fpSpillWrite.Inject(); err != nil {
		return err
	}
	if w.n == len(w.buf) {
		if err := w.flush(); err != nil {
			return err
		}
	}
	catalog.PutRecord(w.buf[w.n:], g)
	w.n += catalog.RecordSize
	return nil
}

func (w *spillWriter) flush() error {
	_, err := w.f.Write(w.buf[:w.n])
	w.n = 0
	return err
}

func (w *spillWriter) close() error {
	err := w.flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func spillPath(dir string, i int, kind string) string {
	return filepath.Join(dir, fmt.Sprintf("part-%04d.%s.spill", i, kind))
}

// spillParts runs the scatter pass: every galaxy lands in its owner's file
// and in the halo file of every other part within rmax of it (Plan.Place).
// Returns per-part owned and halo counts.
func (s *stream) spillParts(ctx context.Context, p *partition.Plan, rmax float64, dir string, nshards int) (owned, halo []int, err error) {
	owned = make([]int, nshards)
	halo = make([]int, nshards)
	writers := make([]*spillWriter, 2*nshards)
	own, hal := writers[:nshards], writers[nshards:]
	// Every exit closes every writer it opened (the pass runs under retry:
	// an attempt that left files open would leak up to 2*nshards descriptors
	// per attempt), and a flush that fails turns an otherwise complete pass
	// into a failed one.
	defer func() {
		for _, w := range writers {
			if w == nil {
				continue
			}
			if cerr := w.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	// Each open file's share of the budget, a whole number of records.
	share := len(s.spill) / len(writers) / catalog.RecordSize * catalog.RecordSize
	for i := range nshards {
		if own[i], err = newSpillWriter(spillPath(dir, i, "own"), s.spill[2*i*share:][:share]); err != nil {
			return nil, nil, err
		}
		if hal[i], err = newSpillWriter(spillPath(dir, i, "halo"), s.spill[(2*i+1)*share:][:share]); err != nil {
			return nil, nil, err
		}
	}
	near := make([]int, 0, nshards)
	_, err = catalog.Each(ctx, s.src, s.block, func(chunk []catalog.Galaxy) error {
		for _, g := range chunk {
			var k int
			k, near = p.Place(g.Pos, rmax, near[:0])
			owned[k]++
			if err := own[k].add(g); err != nil {
				return err
			}
			for _, i := range near {
				halo[i]++
				if err := hal[i].add(g); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return owned, halo, err
}

// readPart decodes part st.Unit's spill files — its st.NOwned primaries,
// then its st.NHalo halo copies — into a part catalog (keeping the source's
// box: part coordinates are unshifted, so the engine's image handling covers
// the wrap) and returns it with its primary mask.
func (s *stream) readPart(ctx context.Context, box geom.Periodic, dir string, st *UnitStats) (*catalog.Catalog, []bool, error) {
	gals := make([]catalog.Galaxy, st.NOwned+st.NHalo)
	if err := s.readSpill(ctx, spillPath(dir, st.Unit, "own"), gals[:st.NOwned]); err != nil {
		return nil, nil, err
	}
	if err := s.readSpill(ctx, spillPath(dir, st.Unit, "halo"), gals[st.NOwned:]); err != nil {
		return nil, nil, err
	}
	primary := make([]bool, len(gals))
	for j := 0; j < st.NOwned; j++ {
		primary[j] = true
	}
	return &catalog.Catalog{Box: box, Galaxies: gals}, primary, nil
}

// readSpill decodes the len(gals) records of one spill file into gals, one
// block at a time through the stream's read block, retrying the whole file
// on transient failure (each attempt reopens and re-reads from the first
// record).
func (s *stream) readSpill(ctx context.Context, path string, gals []catalog.Galaxy) error {
	return retry.Policy{}.Do(ctx, "spill read", func() error {
		if err := fpSpillRead.Inject(); err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		for i := 0; i < len(gals); {
			k := min(len(gals)-i, decodeBlock)
			if got, err := io.ReadFull(f, s.raw[:k*catalog.RecordSize]); err != nil {
				return fmt.Errorf("shard: reading spill %s record %d: %w", filepath.Base(path), i+got/catalog.RecordSize, err)
			}
			for j := range k {
				gals[i+j] = catalog.GetRecord(s.raw[j*catalog.RecordSize:])
			}
			i += k
		}
		return nil
	})
}
