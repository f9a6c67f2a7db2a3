package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunSmoke runs the golden service smoke gate (make service-smoke) at a
// small catalog against an in-process server: the served result must be
// bitwise-equal to a direct Run, and the resubmission a byte-identical
// cache hit.
func TestRunSmoke(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-smoke", "-n", "300", "-workers", "1"}, &stdout); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "service-smoke PASS") {
		t.Fatalf("no PASS line:\n%s", stdout.String())
	}
	if err := run(context.Background(), []string{"-no-such-flag"}, &stdout); err != errUsage {
		t.Fatalf("unknown flag: got %v, want the usage error", err)
	}
}
