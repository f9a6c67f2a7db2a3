// Command catgen generates synthetic galaxy catalogs: the stand-ins for the
// Outer Rim simulation data of the paper (Sec. 4.2). It supports uniform
// (random), clustered (halo model), BAO-shell, and Soneira–Peebles
// hierarchical catalogs, optional redshift-space distortion, and the
// density-matched Table 1 weak-scaling datasets.
//
// Examples:
//
//	catgen -type clustered -n 225000 -density outer-rim -o node.glxc
//	catgen -type bao -n 100000 -l 800 -o bao.csv
//	catgen -type uniform -table1-nodes 4 -per-node 50000 -o weak4.glxc
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"galactos/internal/catalog"
)

// main is the one exit: run returns every failure.
func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "catgen: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set has already answered with
// its usage text; main exits 2 for it, as flag.ExitOnError would.
var errUsage = errors.New("usage")

// run parses args, generates one catalog and writes it to -o, reporting
// what it wrote on stdout.
func run(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("catgen", flag.ContinueOnError)
	var (
		typ     = fs.String("type", "uniform", "catalog type: uniform | clustered | bao | soneira")
		n       = fs.Int("n", 100000, "number of galaxies")
		l       = fs.Float64("l", 0, "box side (Mpc/h); 0 derives it from -density")
		density = fs.String("density", "outer-rim", "number density: 'outer-rim' (0.0723) or a value in (Mpc/h)^-3")
		seed    = fs.Int64("seed", 1, "random seed")
		out     = fs.String("o", "", "output path (required; a .csv path gets CSV rows, any other the binary format)")
		rsd     = fs.Float64("rsd", 0, "apply redshift-space z-displacement of this sigma (Mpc/h)")
		nodes   = fs.Int("table1-nodes", 0, "generate a scaled Table 1 dataset for this many nodes")
		perNode = fs.Int("per-node", 50000, "galaxies per node for -table1-nodes")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *out == "" {
		fmt.Fprintln(fs.Output(), "catgen: -o output path is required")
		fs.Usage()
		return errUsage
	}

	switch {
	case *n < 1:
		return fmt.Errorf("-n %d: want at least 1 galaxy", *n)
	case *perNode < 1:
		return fmt.Errorf("-per-node %d: want at least 1 galaxy per node", *perNode)
	}
	dens := catalog.OuterRimDensity
	if *density != "outer-rim" {
		v, err := strconv.ParseFloat(*density, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) { // !(v > 0) refuses NaN too
			return fmt.Errorf("bad -density %q: want outer-rim or a finite positive number", *density)
		}
		dens = v
	}

	var cat *catalog.Catalog
	switch {
	case *nodes > 0:
		row := catalog.ScaledTable1Row(*nodes, *perNode)
		fmt.Fprintf(stdout, "table1 dataset: %d nodes, %d galaxies, box %.1f Mpc/h (density %.4g)\n",
			row.Nodes, row.Galaxies, row.BoxL, catalog.OuterRimDensity)
		cat = catalog.GenerateTable1Dataset(row, *seed)
	default:
		side := *l
		if side <= 0 {
			side = math.Cbrt(float64(*n) / dens)
		}
		switch *typ {
		case "uniform":
			cat = catalog.Uniform(*n, side, *seed)
		case "clustered":
			cat = catalog.Clustered(*n, side, catalog.DefaultClusterParams(), *seed)
		case "bao":
			cat = catalog.BAOShells(*n, side, catalog.DefaultBAOParams(), *seed)
		case "soneira":
			p := catalog.DefaultSoneiraPeebles()
			// Scale the number of top-level centers to approximate -n.
			per := int(math.Pow(float64(p.Eta), float64(p.Levels)))
			p.Centers = (*n + per - 1) / per
			cat = catalog.SoneiraPeebles(side, p, *seed)
		default:
			return fmt.Errorf("unknown -type %q", *typ)
		}
	}

	if *rsd > 0 {
		cat = catalog.ApplyRSD(cat, *rsd, *seed+1)
	}
	if err := cat.Validate(); err != nil {
		return fmt.Errorf("generated catalog invalid: %w", err)
	}

	if err := catalog.Save(*out, cat); err != nil {
		return fmt.Errorf("writing %s: %w", *out, err)
	}
	fmt.Fprintf(stdout, "wrote %d galaxies (box %.1f Mpc/h, density %.4g) to %s\n",
		cat.Len(), cat.Box.L, cat.Density(), *out)
	return nil
}
