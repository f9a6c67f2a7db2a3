package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"galactos"
)

// TestRunModes drives the command's flags through run, in order: the sharded
// row resumes from an empty checkpoint dir and must write CSVs
// byte-identical to the local row's, both write a -perf-json run record
// whose pair count is the one the summary prints, the radial and midpoint
// lines of sight complete with the full ladder, -cpuprofile leaves a
// profile, and a run without -in, a local backend asked for shards, an
// unknown backend or line of sight, a NaN -rmax, -shards below 1 and
// negative -workers are refused. The backend rows are -iso-only: with the
// full ladder, the analytically zero imaginary parts of the l1 = l2 channels
// carry ~1e-17 of summation-order rounding that the aniso CSV prints.
func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "cat.glxc")
	if err := galactos.SaveCatalog(in, galactos.GenerateClustered(800, 160, galactos.DefaultClusterParams(), 1)); err != nil {
		t.Fatal(err)
	}
	full := func(args ...string) []string {
		return append([]string{"-in", in, "-rmax", "30", "-nbins", "4", "-lmax", "3"}, args...)
	}
	compute := func(args ...string) []string { return full(append([]string{"-iso-only"}, args...)...) }
	local := filepath.Join(dir, "local")
	sharded := filepath.Join(dir, "sharded")
	radial := filepath.Join(dir, "radial")
	midpoint := filepath.Join(dir, "midpoint")
	profiled := filepath.Join(dir, "profiled")
	rows := []struct {
		name   string
		args   []string
		stdout string // a line the mode must print
		err    string // the refusal, when the mode must fail
		out    string // the -out prefix whose CSVs must exist
		sameAs string // another row's -out prefix with byte-identical CSVs
		perf   string // the backend the -perf-json report at out+".json" must name
		file   string // a file the run must leave non-empty
	}{
		{
			name:   "local",
			args:   compute("-perf-json", local+".json", "-out", local),
			stdout: "wrote " + local + ".aniso.csv",
			out:    local,
			perf:   "local",
		},
		{
			name:   "sharded-resume",
			args:   compute("-backend", "sharded", "-shards", "3", "-checkpoint-dir", filepath.Join(dir, "ckpt"), "-resume", "-perf-json", sharded+".json", "-out", sharded),
			stdout: "sharded over 3 units",
			out:    sharded,
			sameAs: local,
			perf:   "sharded",
		},
		{name: "los-radial", args: full("-los", "radial", "-out", radial), stdout: "wrote " + radial + ".aniso.csv", out: radial},
		{name: "los-midpoint", args: full("-los", "midpoint", "-out", midpoint), stdout: "wrote " + midpoint + ".aniso.csv", out: midpoint},
		{
			name:   "cpuprofile",
			args:   compute("-cpuprofile", profiled+".prof", "-out", profiled),
			stdout: "wrote " + profiled + ".aniso.csv",
			file:   profiled + ".prof",
		},
		{name: "missing-in", args: []string{"-rmax", "30"}, err: errUsage.Error()},
		{name: "local-refuses-shards", args: compute("-backend", "local", "-shards", "2"), err: "require the sharded backend"},
		{name: "unknown-backend", args: compute("-backend", "mpi"), err: "unknown -backend"},
		{name: "unknown-los", args: compute("-los", "sideways"), err: "unknown -los"},
		{name: "nan-rmax", args: compute("-rmax", "NaN"), err: "invalid radial range"},
		{name: "zero-shards", args: compute("-backend", "sharded", "-shards", "0"), err: "-shards 0"},
		{name: "negative-workers", args: compute("-workers", "-4"), err: "-workers -4"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var stdout bytes.Buffer
			err := run(context.Background(), r.args, &stdout)
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
			if r.file != "" {
				if fi, err := os.Stat(r.file); err != nil || fi.Size() == 0 {
					t.Errorf("%s: %v, want a non-empty file", r.file, err)
				}
			}
			if r.perf != "" {
				checkPerfReport(t, r.out+".json", r.perf, stdout.String())
			}
			if r.out == "" {
				return
			}
			for _, ext := range []string{".aniso.csv", ".iso.csv"} {
				got, err := os.ReadFile(r.out + ext)
				if err != nil {
					t.Fatal(err)
				}
				if r.sameAs == "" {
					continue
				}
				want, err := os.ReadFile(r.sameAs + ext)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s%s differs from %s%s", r.out, ext, r.sameAs, ext)
				}
			}
		})
	}
}

// checkPerfReport decodes the -perf-json run record at path: it must name
// backend, count the pairs of the summary's "pairs:" line and carry the
// phase timings.
func checkPerfReport(t *testing.T, path, backend, stdout string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep galactos.RunResult
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var pairs uint64
	for _, line := range strings.Split(stdout, "\n") {
		if v, ok := strings.CutPrefix(line, "pairs:"); ok {
			if pairs, err = strconv.ParseUint(strings.TrimSpace(v), 10, 64); err != nil {
				t.Fatalf("pairs line %q: %v", line, err)
			}
		}
	}
	if rep.Result == nil {
		t.Fatalf("%s: no result in %s", path, data)
	}
	if pairs == 0 || rep.Result.Pairs != pairs || rep.Backend != backend {
		t.Errorf("%s: backend %q with %d pairs, want %q with the summary's %d", path, rep.Backend, rep.Result.Pairs, backend, pairs)
	}
	if rep.Result.Timings.Consume <= 0 {
		t.Errorf("%s: phase timings not populated: %+v", path, rep.Result.Timings)
	}
}
