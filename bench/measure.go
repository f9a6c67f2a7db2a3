package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// warmupSlices run before anything is timed: the first fills caches and
// becomes the reference result, and service.New on the fixture state
// directory compacts its journal once.
const warmupSlices = 3

// minSlices is the fewest timed slices a run reports medians of.
const minSlices = 5

// samples are the per-slice measurements of one kind of slice (traced or
// not). setupS and solveS are in nominal seconds (see calibNominalS);
// setupWall and solveWall are the same intervals as the clock read them.
type samples struct {
	setupS, solveS       []float64
	setupWall, solveWall []float64
	calib                []float64
	shares               map[string][]float64
	hitMs                []float64
	attempted, failed    int
}

// runSlice drives one slice and adds what it measured to s. Only a slice
// whose every operation verified contributes. A non-nil error is a harness
// failure, not a failed operation.
func runSlice(w workload, tr *tracer, slice int, s *samples) error {
	if err := w.reset(slice); err != nil {
		return fmt.Errorf("slice %d: %w", slice, err)
	}
	if tr != nil {
		tr.slice = slice
	}
	c0, err := quietCalibration(w)
	if err != nil {
		return fmt.Errorf("slice %d: %w", slice, err)
	}
	t0 := time.Now()
	err = tr.do("setup", func() error { return w.setup(tr) })
	setupWall := time.Since(t0).Seconds()
	var o *outcome
	var c1, solveWall float64
	if err == nil {
		if c1, err = quietCalibration(w); err != nil {
			return fmt.Errorf("slice %d: %w", slice, err)
		}
		t0 = time.Now()
		err = tr.do("solve", func() (err error) {
			o, err = w.solve(tr)
			return err
		})
		solveWall = time.Since(t0).Seconds()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "slice %d failed: %v\n", slice, err)
		s.attempted++
		s.failed++
		return nil
	}
	// Verification runs before the closing calibration, not after it: it is
	// tens of milliseconds in which anything the solve left running ends.
	if err := w.check(o); err != nil {
		fmt.Fprintf(os.Stderr, "slice %d failed verification: %v\n", slice, err)
	}
	c2, err := quietCalibration(w)
	if err != nil {
		return fmt.Errorf("slice %d: %w", slice, err)
	}
	s.attempted += o.ops
	s.failed += o.failed
	if o.failed > 0 {
		return nil
	}
	s.calib = append(s.calib, c0, c1, c2)
	s.setupWall = append(s.setupWall, setupWall)
	s.solveWall = append(s.solveWall, solveWall)
	s.setupS = append(s.setupS, nominal(setupWall, c0, c1))
	s.solveS = append(s.solveS, nominal(solveWall, c1, c2))
	s.hitMs = append(s.hitMs, o.hitMs...)
	if s.shares == nil {
		s.shares = map[string][]float64{}
	}
	t := o.timings
	phases := t.TreeBuild + t.Gather + t.Consume + t.AlmZeta + t.SelfCount
	for name, d := range map[string]float64{
		"build":     t.TreeBuild.Seconds(),
		"gather":    t.Gather.Seconds(),
		"consume":   t.Consume.Seconds(),
		"almzeta":   t.AlmZeta.Seconds(),
		"selfcount": t.SelfCount.Seconds(),
		// other is the solve time no engine phase claims: scheduling inside
		// the engine, and everything around it (decode, spill, checkpoint,
		// merge on stream_sharded; HTTP, journal, cache on service_mix).
		"other":  solveWall - phases.Seconds(),
		"engine": o.engineS,
	} {
		s.shares[name] = append(s.shares[name], d/solveWall)
	}
	return nil
}

// quietCalibration times the calibration loop on a process with nothing else
// to do: the divisor of a timed metric must not be something the code under
// test can lengthen by leaving work behind. It waits until the workload has
// no job in flight, runs a full collection (which also ends a concurrent
// one), and only then calibrates. None of it is inside a timed interval.
func quietCalibration(w workload) (float64, error) {
	if err := w.settle(); err != nil {
		return 0, err
	}
	runtime.GC()
	return calibrate(), nil
}

// sliceBudget decides when a run has timed enough slices: a fixed count
// when one was asked for, otherwise the first slice boundary past the
// deadline.
type sliceBudget struct {
	count    int
	deadline time.Time
}

func (b sliceBudget) more(done int) bool {
	if b.count > 0 {
		return done < b.count
	}
	return done < minSlices || time.Now().Before(b.deadline)
}
