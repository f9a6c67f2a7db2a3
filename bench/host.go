package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"galactos/internal/sphharm"
)

// calibNominalS is the calibration loop's duration at the speed the timed
// metrics are stated for. Every timed end-to-end metric is reported as
// wall × calibNominalS / (calibration measured around that interval), so a
// run on a host that is momentarily slower — shared-host contention showed
// as a drift of ±25 % over tens of seconds, tracked by this loop to ~2 % —
// reads the same as a run on a quiet one. The constant only fixes the unit;
// it cancels in every comparison made on one host.
const calibNominalS = 0.004

var calibSink float64

// calibrate times a fixed arithmetic loop: a latency-bound part (4 dependent
// FMA chains) and a throughput-bound part (12 chains), because contention
// from a neighbour slows the two differently and the engine is a mix.
func calibrate() float64 {
	t0 := time.Now()
	a, b, c, d := 1.0, 1.0, 1.0, 1.0
	for i := 0; i < 800_000; i++ {
		a = math.FMA(a, 0.999999, 1e-9)
		b = math.FMA(b, 0.999999, 1e-9)
		c = math.FMA(c, 0.999999, 1e-9)
		d = math.FMA(d, 0.999999, 1e-9)
	}
	x0, x1, x2, x3, x4, x5 := a, b, c, d, a, b
	x6, x7, x8, x9, x10, x11 := c, d, a, b, c, d
	for i := 0; i < 400_000; i++ {
		x0 = math.FMA(x0, 0.999999, 1e-9)
		x1 = math.FMA(x1, 0.999999, 1e-9)
		x2 = math.FMA(x2, 0.999999, 1e-9)
		x3 = math.FMA(x3, 0.999999, 1e-9)
		x4 = math.FMA(x4, 0.999999, 1e-9)
		x5 = math.FMA(x5, 0.999999, 1e-9)
		x6 = math.FMA(x6, 0.999999, 1e-9)
		x7 = math.FMA(x7, 0.999999, 1e-9)
		x8 = math.FMA(x8, 0.999999, 1e-9)
		x9 = math.FMA(x9, 0.999999, 1e-9)
		x10 = math.FMA(x10, 0.999999, 1e-9)
		x11 = math.FMA(x11, 0.999999, 1e-9)
	}
	calibSink = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11
	return time.Since(t0).Seconds()
}

// nominal converts a wall interval to seconds at the nominal host speed,
// given the calibrations taken just before and just after it.
func nominal(wall, calibBefore, calibAfter float64) float64 {
	return wall * calibNominalS / ((calibBefore + calibAfter) / 2)
}

// pinEnvironment fixes what the program under test may not vary between
// runs and refuses to run where a fault plan or a dispatch override would
// make the numbers describe something else.
func pinEnvironment() error {
	for _, k := range []string{"GALACTOS_FAULTS", "GALACTOS_LANE_DISPATCH"} {
		if os.Getenv(k) != "" {
			return fmt.Errorf("%s is set; the benchmark measures the default build only", k)
		}
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	return nil
}

// environment is the fingerprint printed with every report.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Dispatch   string `json:"lane_dispatch"`
}

func currentEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Dispatch:   sphharm.LaneDispatch(),
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
