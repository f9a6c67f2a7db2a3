package core

import (
	"errors"
	"strings"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/faultpoint"
)

// faultConfig is a small multi-worker config: the hardest case for panic
// isolation (the commit clock must keep advancing past a dead worker's
// claimed unit).
func faultConfig() Config {
	return Config{RMin: 1, RMax: 20, NBins: 4, LMax: 2, Workers: 4}
}

func TestWorkerPanicBecomesError(t *testing.T) {
	cat := catalog.Clustered(1500, 150, catalog.DefaultClusterParams(), 11)
	faultpoint.Enable(faultpoint.NewPlan(0,
		faultpoint.Point{Name: "core.worker.block", Kind: faultpoint.KindPanic, After: 2, Count: 1}))
	defer faultpoint.Disable()

	res, err := Compute(cat, faultConfig())
	if err == nil {
		t.Fatal("run with an injected worker panic returned nil error")
	}
	if res != nil {
		t.Error("failed run returned a non-nil result")
	}
	if !strings.Contains(err.Error(), "worker panic") || !strings.Contains(err.Error(), "core.worker.block") {
		t.Errorf("error %q does not carry the panic provenance", err)
	}
	if !strings.Contains(err.Error(), "safeProcessBlock") {
		t.Errorf("error %q does not carry a stack trace", err)
	}
}

func TestWorkerInjectedErrorFailsRun(t *testing.T) {
	cat := catalog.Clustered(1500, 150, catalog.DefaultClusterParams(), 12)
	faultpoint.Enable(faultpoint.NewPlan(0,
		faultpoint.Point{Name: "core.worker.block", Kind: faultpoint.KindError, After: 1, Count: 1}))
	defer faultpoint.Disable()

	_, err := Compute(cat, faultConfig())
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("run error = %v, want the injected fault", err)
	}
}

func TestWorkerDelayLeavesResultBitwise(t *testing.T) {
	cat := catalog.Clustered(1200, 140, catalog.DefaultClusterParams(), 13)
	cfg := faultConfig()
	clean, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Enable(faultpoint.NewPlan(7,
		faultpoint.Point{Name: "core.worker.block", Kind: faultpoint.KindDelay, P: 0.3}))
	defer faultpoint.Disable()
	slow, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(slow, clean); err != nil {
		t.Errorf("injected delays changed the result: %v", err)
	}
	st := faultpoint.Stats()
	if len(st) != 1 || st[0].Fired == 0 {
		t.Errorf("delay point never fired: %+v", st)
	}
	faultpoint.Disable()
	cfg.Workers = 1
	one, err := Compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(slow, one); err != nil {
		t.Errorf("delayed 4-worker run differs from a 1-worker run: %v", err)
	}
}
