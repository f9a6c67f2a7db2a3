package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRun drives the refusals that come before any server starts: an
// unknown flag, and a count below 1, which would divide by zero choosing a
// catalog (-distinct 0) or pass a smoke on a job that counted nothing
// (-n -1).
func TestRun(t *testing.T) {
	rows := []struct {
		name string
		args []string
		err  string
	}{
		{"unknown-flag", []string{"-no-such-flag"}, errUsage.Error()},
		{"zero-clients", []string{"-clients", "0"}, "-clients 0"},
		{"zero-requests", []string{"-requests", "0"}, "-requests 0"},
		{"zero-distinct", []string{"-distinct", "0"}, "-distinct 0"},
		{"negative-n", []string{"-smoke", "-n", "-1"}, "-n -1"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var stdout bytes.Buffer
			err := run(context.Background(), r.args, &stdout)
			if err == nil || !strings.Contains(err.Error(), r.err) {
				t.Fatalf("got error %v, want one containing %q\n%s", err, r.err, stdout.String())
			}
			if stdout.Len() > 0 {
				t.Errorf("refused run printed:\n%s", stdout.String())
			}
		})
	}
}

// TestRunSmoke runs the golden service smoke gate at a small catalog
// against an in-process server: the served result must be bitwise-equal to
// a direct Run, and the resubmission a byte-identical cache hit.
func TestRunSmoke(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-smoke", "-n", "300", "-workers", "1"}, &stdout); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "service-smoke PASS") {
		t.Fatalf("no PASS line:\n%s", stdout.String())
	}
}
