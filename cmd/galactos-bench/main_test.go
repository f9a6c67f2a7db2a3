package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunExperiments drives run through -list, every experiment at -scale
// small, and the refused -exp and -scale values, so no paper experiment can
// rot outside tier-1. Each experiment row checks one line of its report.
func TestRunExperiments(t *testing.T) {
	rows := []struct {
		name   string
		args   []string
		stdout string // a line the run must print
		err    string // the refusal, when the run must fail
	}{
		{name: "list", args: []string{"-list"}, stdout: "sharded      Sec. 3.3"},
		{name: "table1", stdout: "locally generated analogues"},
		{name: "breakdown", stdout: "consume"},
		{name: "threads", stdout: "this host: GOMAXPROCS"},
		{name: "weak", stdout: "prim imb"},
		{name: "strong", stdout: "pair imb"},
		{name: "singlenode", stdout: "paper FLOP model"},
		{name: "fullsystem", stdout: "9636 nodes of this host"},
		{name: "baomap", stdout: "local bump at r = 105 Mpc/h"},
		{name: "se15", stdout: "full anisotropic"},
		{name: "crossover", stdout: "brute force"},
		{name: "sharded", stdout: "8 shards (ckpt)"},
		{name: "unknown-exp", args: []string{"-exp", "nope", "-scale", "small"}, err: `no experiment named "nope"`},
		{name: "unknown-scale", args: []string{"-exp", "table1", "-scale", "huge"}, err: `unknown -scale "huge"`},
	}
	if len(rows) != len(experiments)+3 {
		t.Fatalf("%d rows for %d experiments: every experiment needs a row", len(rows), len(experiments))
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			args := r.args
			if args == nil {
				args = []string{"-exp", r.name, "-scale", "small"}
			}
			var stdout bytes.Buffer
			err := run(context.Background(), args, &stdout)
			if r.err != "" {
				if err == nil || !strings.Contains(err.Error(), r.err) {
					t.Fatalf("got error %v, want one containing %q", err, r.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(stdout.String(), r.stdout) {
				t.Errorf("stdout lacks %q:\n%s", r.stdout, stdout.String())
			}
			if r.args == nil && !strings.Contains(stdout.String(), "--- "+r.name+" done in") {
				t.Errorf("stdout lacks the %s done line:\n%s", r.name, stdout.String())
			}
		})
	}
}

// TestLocalBump pins baomap's bump search: a flat ratio series has no bin
// above its neighbours' mean and must say so rather than name a bin.
func TestLocalBump(t *testing.T) {
	center := func(b int) float64 { return 10*float64(b) + 5 }
	flat := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if got := localBump(flat, center); !strings.HasPrefix(got, "no local bump") {
		t.Errorf("flat series: %q", got)
	}
	bumped := append([]float64(nil), flat...)
	bumped[10] = 1.1
	if got := localBump(bumped, center); !strings.HasPrefix(got, "local bump at r = 105 Mpc/h, height +0.100") {
		t.Errorf("bump at bin 10: %q", got)
	}
	// Below 60 Mpc/h a bump is small-scale clustering, not the feature.
	small := append([]float64(nil), flat...)
	small[3] = 1.1
	if got := localBump(small, center); !strings.HasPrefix(got, "no local bump") {
		t.Errorf("bump at 35 Mpc/h: %q", got)
	}
}
