package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runSelfcheck measures the benchmark's own steadiness the way the driver
// judges it: two sets of runs of the same code, each run its own process
// with its own seed, the sets alternating run by run. For every end-to-end
// metric it prints both sets' quartiles, each set's spread (interquartile
// distance over median) and how far the second median is from the first,
// and fails if a spread (setup_s excepted, as in the driver) or a shift
// exceeds the metric's bound.
func runSelfcheck(o options, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2]map[string][]float64{{}, {}}
	for i := 0; i < runs; i++ {
		for s := range sets {
			args := []string{
				"-workload", o.workload, "-seed", strconv.FormatInt(o.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0",
			}
			var stdout bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("run %d of set %c: %w", i+1, 'A'+s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("run %d of set %c: last line: %w", i+1, 'A'+s, err)
			}
			fmt.Printf("set %c run %2d seed %d:", 'A'+s, i+1, o.seed+int64(i))
			for _, d := range endToEnd {
				v := res.Metrics[d.Name].Value
				sets[s][d.Name] = append(sets[s][d.Name], v)
				fmt.Printf("  %s %.6g", d.Name, v)
			}
			// The run's own account of the host, so that a log of this mode
			// shows what the calibration did to each run (README.md).
			for _, l := range lines {
				if bytes.HasPrefix(l, []byte("host:")) {
					fmt.Printf("  %s", l[len("host:"):])
				}
			}
			fmt.Println()
		}
	}

	fmt.Printf("\n%-12s %-4s %10s %10s %10s %8s %8s %7s\n", "metric", "set", "p25", "median", "p75", "spread", "shift", "bound")
	var bad []string
	for _, d := range endToEnd {
		for s := range sets {
			q := summarize(sets[s][d.Name])
			shift := ""
			if s == 1 {
				shift = fmt.Sprintf("%7.2f%%", 100*(q.Median-median(sets[0][d.Name]))/median(sets[0][d.Name]))
			}
			fmt.Printf("%-12s %-4c %10.6g %10.6g %10.6g %7.2f%% %8s %6.0f%%\n",
				d.Name, 'A'+s, q.P25, q.Median, q.P75, 100*driverSpread(sets[s][d.Name]), shift, 100*d.Bound)
		}
		bad = append(bad, disagreements(d, sets[0][d.Name], sets[1][d.Name])...)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s: beyond its bound: %v", o.workload, bad)
	}
	fmt.Printf("%s: every end-to-end metric within its bound\n", o.workload)
	return nil
}

// disagreements names what two sets of runs of the same code fail on for
// metric d: a set's spread beyond the bound (setup_s excepted, as in the
// driver), or medians further apart than the bound. The sets measure the same
// code, so a second median that far below the first is as much a
// disagreement as one above it.
func disagreements(d metricDef, a, b []float64) []string {
	var bad []string
	for s, v := range [2][]float64{a, b} {
		if d.Name != "setup_s" && driverSpread(v) > d.Bound {
			bad = append(bad, fmt.Sprintf("%s spread of set %c", d.Name, 'A'+s))
		}
	}
	if math.Abs(median(b)-median(a))/median(a) > d.Bound {
		bad = append(bad, d.Name+" shift")
	}
	return bad
}
