// Covariance estimation (paper Sec. 6.1): "partitioning the survey
// spatially to parallelize over many nodes amounts to jack-knifing:
// retaining the local 3PCF results on a per node basis would therefore
// constitute many samples of the 3PCF over small volumes. These can be
// combined to provide a covariance matrix."
//
// This example runs the registry's jackknife-covariance scenario
// (`galactos -scenario jackknife-covariance` runs the identical recipe):
// the catalog is split into spatial regions with the same k-d partitioner
// the sharded backend uses, the full sample and every leave-one-out
// catalog run through the execution layer, and the delete-one samples feed
// the jackknife covariance. The example then inverts the matrix (the step
// the paper warns is sensitive to having too few samples) and reports
// diagnostics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"

	"galactos"
)

func main() {
	nFlag := flag.Int("n", 24000, "catalog size (small values smoke-test only)")
	flag.Parse()
	ctx := context.Background()

	// The whole resampling pipeline is one registry row: catalog recipe,
	// region split, full + leave-one-out runs through the backend, and the
	// invariants (exact partition, symmetric + PSD covariance, LOO means
	// tracking the full sample) checked before we ever look at the output.
	outcome, err := galactos.RunScenario(ctx, galactos.LocalBackend(), "jackknife-covariance", *nFlag, 5)
	if err != nil {
		log.Fatal(err)
	}
	jk := outcome.Jackknife
	fmt.Printf("scenario jackknife-covariance: n=%d, %d regions, invariants ok, hash %s\n",
		outcome.N, jk.Regions, outcome.GoldenHash()[:16])
	fmt.Printf("region occupancies: %v\n", jk.RegionCounts)

	fmt.Println("\nstatistic: weight-normalized monopole diagonal zeta_0(b,b)/sum w")
	fmt.Println("  bin   full-sample    LOO mean")
	for b := range jk.Full {
		fmt.Printf("  %3d   %11.4e   %11.4e\n", b, jk.Full[b], jk.Mean[b])
	}

	cov := jk.Cov
	fmt.Println("\njackknife covariance (diagonal = per-bin variance):")
	for i := 0; i < cov.N; i++ {
		for j := 0; j < cov.N; j++ {
			fmt.Printf(" %11.3e", cov.At(i, j))
		}
		fmt.Println()
	}

	corr, err := cov.CorrelationMatrix()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncorrelation matrix:")
	for i := 0; i < corr.N; i++ {
		for j := 0; j < corr.N; j++ {
			fmt.Printf(" %+6.2f", corr.At(i, j))
		}
		fmt.Println()
	}

	fmt.Printf("\ncondition estimate: %.2e\n", cov.ConditionEstimate())
	inv, err := cov.Inverse()
	if err != nil {
		log.Fatalf("inversion failed (too few samples for the dimension?): %v", err)
	}
	prod, err := cov.Mul(inv)
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for i := 0; i < prod.N; i++ {
		worst = math.Max(worst, math.Abs(prod.At(i, i)-1))
	}
	fmt.Printf("inverted: max |diag(C C^-1) - 1| = %.2e, max off-diagonal = %.2e\n",
		worst, prod.MaxAbsOffDiagonal())
	fmt.Println("\nthe inverse covariance is what weights the data vector when fitting")
	fmt.Println("cosmological models (dark energy, growth rate) to the measured 3PCF.")
}
