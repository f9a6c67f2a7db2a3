// Quickstart: generate a mock galaxy catalog, compute its anisotropic 3PCF,
// and print the isotropic multipoles — the minimal end-to-end use of the
// public API.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"galactos"
)

func main() {
	nFlag := flag.Int("n", 10000, "catalog size (small values smoke-test only)")
	flag.Parse()
	n := *nFlag
	// A BOSS-like clustered mock in a 200 Mpc/h periodic box. The only
	// required input is the 3-D positions (Sec. 1.3 of the paper); weights
	// default to 1.
	cat := galactos.GenerateClustered(n, 200, galactos.DefaultClusterParams(), 1)
	fmt.Printf("catalog: %d galaxies, box %.0f Mpc/h, density %.4f (Mpc/h)^-3\n",
		cat.Len(), cat.Box.L, cat.Density())

	// Configuration: the paper runs Rmax = 200 Mpc/h with 20 bins and
	// l_max = 10; here we scale Rmax to the box.
	cfg := galactos.DefaultConfig()
	cfg.RMax = 60   // max triangle side (must be < box/2)
	cfg.NBins = 6   // 10 Mpc/h shells
	cfg.LMax = 5    // multipole order (the paper runs 10)
	cfg.Workers = 0 // all cores
	// SelfCount subtracts the secondary-paired-with-itself term so diagonal
	// bins are exact triplet counts; it costs a few x the raw kernel. Keep
	// it on when the absolute values matter; off for performance studies.
	cfg.SelfCount = false

	// Run is the facade's one canonical entrypoint: the same Request,
	// serialized as JSON, submits unchanged to the galactosd job service.
	run, err := galactos.Run(context.Background(),
		galactos.Request{Catalog: cat, Config: cfg, Label: "quickstart"})
	if err != nil {
		log.Fatal(err)
	}
	res := run.Result
	fmt.Printf("computed %d primary galaxies, %d pairs in %v\n",
		res.NPrimaries, res.Pairs, run.Elapsed.Round(time.Millisecond))

	// The isotropic multipoles zeta_l(r1, r2) (Slepian–Eisenstein basis).
	fmt.Println("\nisotropic monopole zeta_0(r, r) along the diagonal:")
	for b := 0; b < cfg.NBins; b++ {
		fmt.Printf("  r = %5.1f Mpc/h   zeta_0 = %12.1f\n", res.Bins.Center(b), res.IsoZeta(0, b, b))
	}

	// One anisotropic channel: zeta^m_{l1 l2}(r1, r2). For an isotropic
	// catalog the l1 != l2 channels are consistent with zero.
	v := res.ZetaM(0, 2, 0, 2, 2)
	fmt.Printf("\nanisotropic channel zeta^0_{02}(r2, r2) = %.3e%+.3ei\n", real(v), imag(v))
}
