package shard

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"galactos/internal/catalog"
	"galactos/internal/faultpoint"
	"galactos/internal/geom"
	"galactos/internal/retry"
)

// Faultpoints of the slab spill scratch files. Spill writes are absorbed by
// restarting the whole scatter pass (re-created files truncate, so a torn
// pass leaves no residue); spill reads retry per file.
var (
	fpSpillWrite = faultpoint.New("shard.spill.write")
	fpSpillRead  = faultpoint.New("shard.spill.read")
)

// spillDirName is the scratch subdirectory for slab spill files inside a
// checkpoint directory.
const spillDirName = "spill"

// histBuckets is the slab-cut histogram resolution: cuts land on bucket
// edges, so per-slab counts are equal up to the galaxies sharing a bucket.
const histBuckets = 4096

// eachChunk makes one sequential pass over src, handing fn every chunk in
// order, and returns the source's box — read after the drain, because a CSV
// cursor only knows its L= token once the pass is complete.
func eachChunk(ctx context.Context, src catalog.Source, fn func([]catalog.Galaxy) error) (geom.Periodic, error) {
	cur, err := src.Open()
	if err != nil {
		return geom.Periodic{}, err
	}
	defer cur.Close() // read-only: a failed close loses nothing
	buf := make([]catalog.Galaxy, catalog.ChunkSize)
	for {
		if err := ctx.Err(); err != nil {
			return geom.Periodic{}, err
		}
		n, nextErr := cur.Next(buf)
		if err := fn(buf[:n]); err != nil {
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

// sourceScan is the product of the first pass: the run identity (count,
// weight, geometry) plus the per-axis extent.
type sourceScan struct {
	box    geom.Periodic
	n      int
	sumW   float64
	lo, hi [3]float64
}

// scanSource runs pass 1: count, bounds, and total weight — and, being the
// first look at every galaxy, the finiteness check.
func scanSource(ctx context.Context, src catalog.Source) (*sourceScan, error) {
	sc := &sourceScan{
		lo: [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)},
		hi: [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	}
	var err error
	sc.box, err = eachChunk(ctx, src, func(chunk []catalog.Galaxy) error {
		if err := catalog.CheckFinite(chunk, sc.n); err != nil {
			return err
		}
		for _, g := range chunk {
			for a := 0; a < 3; a++ {
				c := g.Pos.Component(a)
				sc.lo[a] = math.Min(sc.lo[a], c)
				sc.hi[a] = math.Max(sc.hi[a], c)
			}
			sc.sumW += g.Weight
		}
		sc.n += len(chunk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sc.n == 0 {
		return nil, fmt.Errorf("shard: empty catalog source")
	}
	return sc, nil
}

// slabPlan is the deterministic output of the planning passes.
type slabPlan struct {
	box  geom.Periodic
	axis int
	lo   float64 // axis extent ([0, L] when periodic)
	hi   float64
	cuts []float64 // nshards-1 ascending interior cut coordinates
}

// interval returns slab i's owned axis interval [a, b).
func (p *slabPlan) interval(i int) (a, b float64) {
	a, b = p.lo, p.hi
	if i > 0 {
		a = p.cuts[i-1]
	}
	if i < len(p.cuts) {
		b = p.cuts[i]
	}
	return a, b
}

// slabOf returns the slab owning axis coordinate c: the smallest i whose
// upper cut lies strictly above c (coordinates exactly on a cut belong to
// the right slab, matching the half-open intervals).
func (p *slabPlan) slabOf(c float64) int {
	return sort.Search(len(p.cuts), func(i int) bool { return p.cuts[i] > c })
}

// axisDist returns the distance from coordinate c to the interval [a, b]
// under the axis wrap (L = 0 means no wrap).
func axisDist(c, a, b, l float64) float64 {
	d := intervalDist(c, a, b)
	if l > 0 {
		d = math.Min(d, math.Min(intervalDist(c-l, a, b), intervalDist(c+l, a, b)))
	}
	return d
}

func intervalDist(c, a, b float64) float64 {
	switch {
	case c < a:
		return a - c
	case c > b:
		return c - b
	default:
		return 0
	}
}

// planSlabs runs pass 2: the equal-count slab cuts along the widest axis.
func planSlabs(ctx context.Context, src catalog.Source, sc *sourceScan, nshards int) (*slabPlan, error) {
	p := &slabPlan{box: sc.box}

	// Cut along the widest axis; a periodic box spans [0, L] on every axis.
	if p.box.L > 0 {
		p.lo, p.hi = 0, p.box.L
	} else {
		for a := 1; a < 3; a++ {
			if sc.hi[a]-sc.lo[a] > sc.hi[p.axis]-sc.lo[p.axis] {
				p.axis = a
			}
		}
		p.lo, p.hi = sc.lo[p.axis], sc.hi[p.axis]
	}
	p.cuts = make([]float64, 0, nshards-1)
	if p.hi > p.lo {
		// Equal-count quantile cuts from a fixed-resolution histogram.
		counts := make([]int, histBuckets)
		width := (p.hi - p.lo) / histBuckets
		_, err := eachChunk(ctx, src, func(chunk []catalog.Galaxy) error {
			for _, g := range chunk {
				b := int((g.Pos.Component(p.axis) - p.lo) / width)
				counts[min(max(b, 0), histBuckets-1)]++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		cum, next := 0, 1
		for b := 0; b < histBuckets && next < nshards; b++ {
			cum += counts[b]
			for next < nshards && cum >= next*sc.n/nshards {
				p.cuts = append(p.cuts, p.lo+float64(float64(b+1)*width))
				next++
			}
		}
	}
	// Cuts the histogram did not place — all of them for a degenerate extent
	// (every galaxy at one coordinate) — sit on the upper edge: the slabs
	// between them are empty and the last one owns what is left.
	for len(p.cuts) < nshards-1 {
		p.cuts = append(p.cuts, p.hi)
	}
	return p, nil
}

// spillWriter buffers one slab file's records.
type spillWriter struct {
	f   *os.File
	bw  *bufio.Writer
	rec [catalog.RecordSize]byte
}

func newSpillWriter(path string) (*spillWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spillWriter{f: f, bw: bufio.NewWriterSize(f, 1<<18)}, nil
}

func (w *spillWriter) add(g catalog.Galaxy) error {
	if err := fpSpillWrite.Inject(); err != nil {
		return err
	}
	catalog.PutRecord(w.rec[:], g)
	_, err := w.bw.Write(w.rec[:])
	return err
}

func (w *spillWriter) close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

func spillPath(dir string, i int, kind string) string {
	return filepath.Join(dir, fmt.Sprintf("slab-%04d.%s.spill", i, kind))
}

// spillSlabs runs the scatter pass: every galaxy lands in its owned slab's
// file and in the halo file of every other slab within rmax along the cut
// axis. Returns per-slab owned and halo counts. Slabs with skip[i] set are
// counted but not written — they already hold a validated checkpoint, so
// rewriting their records would be wasted IO.
func spillSlabs(ctx context.Context, src catalog.Source, p *slabPlan, rmax float64, dir string, skip []bool) (owned, halo []int, err error) {
	nshards := len(skip)
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
	for i := range skip {
		if skip[i] {
			continue
		}
		if own[i], err = newSpillWriter(spillPath(dir, i, "own")); err != nil {
			return nil, nil, err
		}
		if hal[i], err = newSpillWriter(spillPath(dir, i, "halo")); err != nil {
			return nil, nil, err
		}
	}
	l := p.box.L
	_, err = eachChunk(ctx, src, func(chunk []catalog.Galaxy) error {
		for _, g := range chunk {
			c := g.Pos.Component(p.axis)
			k := p.slabOf(c)
			owned[k]++
			if own[k] != nil {
				if err := own[k].add(g); err != nil {
					return err
				}
			}
			// Slab count is small against the catalog, so a linear halo
			// scan per galaxy stays cheap; slabs are ordered, so it could
			// be narrowed to a window if shard counts ever grow.
			for i := range skip {
				if i == k {
					continue
				}
				a, b := p.interval(i)
				if axisDist(c, a, b, l) > rmax {
					continue
				}
				halo[i]++
				if hal[i] != nil {
					if err := hal[i].add(g); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	return owned, halo, err
}

// readSpill appends the n records of one spill file to gals, retrying the
// whole file on transient failure (each attempt reopens, re-reads from the
// first record and appends at the caller's length again).
func readSpill(ctx context.Context, path string, n int, gals []catalog.Galaxy) ([]catalog.Galaxy, error) {
	var out []catalog.Galaxy
	err := retry.Policy{}.Do(ctx, "spill read", func() error {
		if err := fpSpillRead.Inject(); err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		br := bufio.NewReaderSize(f, 1<<18)
		var rec [catalog.RecordSize]byte
		out = gals
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return fmt.Errorf("shard: reading spill %s record %d: %w", filepath.Base(path), i, err)
			}
			out = append(out, catalog.GetRecord(rec[:]))
		}
		return nil
	})
	return out, err
}
