package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"galactos"
)

// TestRunModes drives the command's backend flags through run, in order:
// the sharded row resumes from an empty checkpoint dir and must write CSVs
// byte-identical to the local row's, and a run without -in, a local
// backend asked for shards and an unknown backend are refused. The runs
// are -iso-only: with the full ladder, the analytically zero imaginary
// parts of the l1 = l2 channels carry ~1e-17 of summation-order rounding
// that the aniso CSV prints.
func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "cat.glxc")
	if err := galactos.SaveCatalog(in, galactos.GenerateClustered(800, 160, galactos.DefaultClusterParams(), 1)); err != nil {
		t.Fatal(err)
	}
	compute := func(args ...string) []string {
		return append([]string{"-in", in, "-rmax", "30", "-nbins", "4", "-lmax", "3", "-iso-only"}, args...)
	}
	local := filepath.Join(dir, "local")
	sharded := filepath.Join(dir, "sharded")
	rows := []struct {
		name   string
		args   []string
		stdout string // a line the mode must print
		err    string // the refusal, when the mode must fail
		out    string // the -out prefix whose CSVs must exist
		sameAs string // another row's -out prefix with byte-identical CSVs
	}{
		{name: "local", args: compute("-out", local), stdout: "wrote " + local + ".aniso.csv", out: local},
		{
			name:   "sharded-resume",
			args:   compute("-backend", "sharded", "-shards", "3", "-checkpoint-dir", filepath.Join(dir, "ckpt"), "-resume", "-out", sharded),
			stdout: "sharded over 3 units",
			out:    sharded,
			sameAs: local,
		},
		{name: "missing-in", args: []string{"-rmax", "30"}, err: errUsage.Error()},
		{name: "local-refuses-shards", args: compute("-backend", "local", "-shards", "2"), err: "require the sharded backend"},
		{name: "unknown-backend", args: compute("-backend", "mpi"), err: "unknown -backend"},
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
