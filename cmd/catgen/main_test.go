package main

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"galactos/internal/catalog"
)

// TestRunCatalogs drives run through both output formats and a Table 1
// dataset, each read back through the reader every run uses (a FileSource,
// which picks the format by extension, as the writer does) with the
// requested size and box, and through the refused unknown -type, missing -o
// and out-of-range flags. A refused run writes no file.
func TestRunCatalogs(t *testing.T) {
	dir := t.TempDir()
	row := catalog.ScaledTable1Row(2, 300)
	rows := []struct {
		name   string
		args   []string
		stdout string  // a line the run must print
		n      int     // galaxies the written catalog must hold
		box    float64 // its box side
		err    error   // a sentinel the refusal must wrap
		errMsg string  // or the text it must contain
	}{
		{name: "binary", args: []string{"-type", "clustered", "-n", "500", "-l", "100", "-o", filepath.Join(dir, "c.glxc")}, stdout: "wrote 500 galaxies", n: 500, box: 100},
		{name: "csv", args: []string{"-type", "bao", "-n", "300", "-l", "420", "-o", filepath.Join(dir, "b.csv")}, stdout: "wrote 300 galaxies", n: 300, box: 420},
		{name: "table1", args: []string{"-table1-nodes", "2", "-per-node", "300", "-o", filepath.Join(dir, "t.glxc")}, stdout: "table1 dataset: 2 nodes", n: row.Galaxies, box: row.BoxL},
		{name: "unknown-type", args: []string{"-type", "spiral", "-o", filepath.Join(dir, "s.glxc")}, errMsg: `unknown -type "spiral"`},
		{name: "missing-o", args: []string{"-n", "10"}, err: errUsage},
		{name: "negative-n", args: []string{"-n", "-1", "-o", filepath.Join(dir, "x.glxc")}, errMsg: "-n -1"},
		{name: "negative-per-node", args: []string{"-table1-nodes", "1", "-per-node", "-5", "-o", filepath.Join(dir, "p.glxc")}, errMsg: "-per-node -5"},
		{name: "density-trailing-junk", args: []string{"-density", "1e-3junk", "-o", filepath.Join(dir, "d.glxc")}, errMsg: `bad -density "1e-3junk"`},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var stdout bytes.Buffer
			err := run(context.Background(), r.args, &stdout)
			switch {
			case r.err != nil:
				if !errors.Is(err, r.err) {
					t.Fatalf("got error %v, want %v", err, r.err)
				}
				return
			case r.errMsg != "":
				if err == nil || !strings.Contains(err.Error(), r.errMsg) {
					t.Fatalf("got error %v, want one containing %q", err, r.errMsg)
				}
				if _, err := os.Stat(r.args[len(r.args)-1]); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("refused run left %s behind (stat: %v)", r.args[len(r.args)-1], err)
				}
				return
			case err != nil:
				t.Fatal(err)
			}
			if !strings.Contains(stdout.String(), r.stdout) {
				t.Errorf("stdout lacks %q:\n%s", r.stdout, stdout.String())
			}
			cat, err := catalog.ReadAll(catalog.NewFileSource(r.args[len(r.args)-1]))
			if err != nil {
				t.Fatal(err)
			}
			if cat.Len() != r.n || cat.Box.L != r.box {
				t.Errorf("read back %d galaxies in a %v box, want %d in %v", cat.Len(), cat.Box.L, r.n, r.box)
			}
		})
	}
}
