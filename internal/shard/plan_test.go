package shard

import (
	"context"
	"math"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
	"galactos/internal/partition"
)

// TestPartsResidentBelowSlabBound: on stream_sharded's catalog shape the
// k-d parts hold fewer resident galaxies (owned plus halo copies, over the
// catalog) than equal-count slabs could: a slab of width L/k pads RMax on
// both faces, 1 + 2·RMax·k/L. The ratios are pinned to 2 % of the ones an
// exact-cut k-d split gives on this catalog.
func TestPartsResidentBelowSlabBound(t *testing.T) {
	const n, rmax = 24000, 5.0
	l := math.Cbrt(n / catalog.OuterRimDensity)
	cat := catalog.Clustered(n, l, catalog.DefaultClusterParams(), 1)
	s := newStream(catalog.NewMemorySource(cat), 64)
	sc, err := catalog.Scan(context.Background(), s.src, s.block, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		parts int
		want  float64
	}{{8, 2.064}, {16, 2.493}, {64, 3.635}} {
		p, err := s.plan(context.Background(), sc, tc.parts)
		if err != nil {
			t.Fatal(err)
		}
		resident := 0
		var near []int
		for _, g := range cat.Galaxies {
			_, near = p.Place(g.Pos, rmax, near[:0])
			resident += 1 + len(near)
		}
		got := float64(resident) / n
		slab := 1 + 2*rmax*float64(tc.parts)/l
		t.Logf("%d parts: resident %.4f, slab bound %.4f", tc.parts, got, slab)
		if got >= slab {
			t.Errorf("%d parts: resident/catalog %.4f, not below the slab bound %.4f", tc.parts, got, slab)
		}
		if math.Abs(got/tc.want-1) > 0.02 {
			t.Errorf("%d parts: resident/catalog %.4f, want %.3f within 2 %%", tc.parts, got, tc.want)
		}
	}
}

// TestSplitMatchesPipelineParts: partition.Split over an in-memory catalog
// and the pipeline streaming the same catalog plan through one planner, so
// they give the same part boxes and owned counts — periodic and open, at
// part counts that are not powers of two — every galaxy lies inside its
// part's box, and the parts of a catalog the cuts can divide own equal
// shares of it to within a few galaxies.
func TestSplitMatchesPipelineParts(t *testing.T) {
	periodic := catalog.Clustered(600, 160, catalog.DefaultClusterParams(), 41)
	open := catalog.Clustered(600, 160, catalog.DefaultClusterParams(), 43)
	open.Box.L = 0
	// Degenerate geometry: 300 coincident points, and a catalog on one plane.
	coincident := &catalog.Catalog{Box: periodic.Box}
	for range 300 {
		coincident.Galaxies = append(coincident.Galaxies, catalog.Galaxy{Pos: periodic.Galaxies[0].Pos, Weight: 1})
	}
	// Far from the origin an absolute pad on the extent vanishes in rounding.
	far := &catalog.Catalog{}
	for _, g := range open.Galaxies {
		far.Galaxies = append(far.Galaxies, catalog.Galaxy{Pos: g.Pos.Add(geom.Vec3{X: 1e8, Y: -3e8, Z: 2e7}), Weight: g.Weight})
	}
	plane := catalog.Uniform(400, 160, 47)
	plane.Box.L = 0
	for i := range plane.Galaxies {
		plane.Galaxies[i].Pos.Z = 37.5
	}
	cfg := testConfig()
	for _, tc := range []struct {
		name     string
		cat      *catalog.Catalog
		balanced bool
	}{{"periodic", periodic, true}, {"open", open, true}, {"far", far, true}, {"coincident", coincident, false}, {"plane", plane, true}} {
		single, err := core.Compute(tc.cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 5, 13} {
			parts, err := partition.Split(tc.cat, k)
			if err != nil {
				t.Fatal(err)
			}
			s := newStream(catalog.NewMemorySource(tc.cat), k)
			sc, err := catalog.Scan(context.Background(), s.src, s.block, false)
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.plan(context.Background(), sc, k)
			if err != nil {
				t.Fatal(err)
			}
			res, stats, err := compute(tc.cat, cfg, Options{NShards: k})
			if err != nil {
				t.Fatal(err)
			}
			for i, part := range parts {
				if part.Box != p.Boxes[i] {
					t.Errorf("%s k=%d part %d: Split box %+v, pipeline box %+v", tc.name, k, i, part.Box, p.Boxes[i])
				}
				if len(part.Index) != stats[i].NOwned {
					t.Errorf("%s k=%d part %d: Split owns %d, pipeline %d", tc.name, k, i, len(part.Index), stats[i].NOwned)
				}
				if share := float64(tc.cat.Len()) / float64(k); tc.balanced && math.Abs(float64(len(part.Index))-share) > 3 {
					t.Errorf("%s k=%d part %d: owns %d galaxies, want %.1f within 3", tc.name, k, i, len(part.Index), share)
				}
				for _, gi := range part.Index {
					if pos := tc.cat.Galaxies[gi].Pos; !part.Box.Contains(pos) {
						t.Fatalf("%s k=%d part %d: galaxy %d at %v outside %+v", tc.name, k, i, gi, pos, part.Box)
					}
				}
			}
			requireMatches(t, tc.name, res, single)
		}
	}
}
