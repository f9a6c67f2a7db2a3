package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fastPolicy keeps test sleeps negligible.
func fastPolicy() Policy {
	return Policy{BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
}

// injected reports itself transient, as faultpoint's errors do.
type injected struct{}

func (injected) Error() string   { return "injected" }
func (injected) Transient() bool { return true }

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Fatal},
		{"canceled", context.Canceled, Fatal},
		{"deadline", fmt.Errorf("wrap: %w", context.DeadlineExceeded), Fatal},
		{"not-exist", fs.ErrNotExist, Fatal},
		{"permission", fs.ErrPermission, Fatal},
		{"eof", io.EOF, Fatal},
		{"unexpected-eof", fmt.Errorf("reading: %w", io.ErrUnexpectedEOF), Fatal},
		{"eio", syscall.EIO, Transient},
		{"eintr", fmt.Errorf("syncing: %w", syscall.EINTR), Transient},
		{"conn-reset", syscall.ECONNRESET, Transient},
		{"unknown", errors.New("some validation failure"), Fatal},
		{"wrapped-transienter", fmt.Errorf("op: %w", injected{}), Transient},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDoRetriesTransientUntilSuccess(t *testing.T) {
	calls := 0
	err := fastPolicy().Do(context.Background(), "op", func() error {
		calls++
		if calls < 3 {
			return syscall.EIO
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v, want success on attempt 3", err)
	}
	if calls != 3 {
		t.Errorf("fn called %d times, want 3", calls)
	}
}

func TestDoFatalReturnsImmediately(t *testing.T) {
	boom := errors.New("validation")
	calls := 0
	err := fastPolicy().Do(context.Background(), "op", func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want the fatal error", err)
	}
	if calls != 1 {
		t.Errorf("fatal error retried: %d calls", calls)
	}
}

func TestDoExhaustionWrapsLastError(t *testing.T) {
	p := fastPolicy()
	p.MaxAttempts = 3
	calls := 0
	err := p.Do(context.Background(), "flaky-op", func() error {
		calls++
		return syscall.EIO
	})
	if calls != 3 {
		t.Errorf("fn called %d times, want MaxAttempts = 3", calls)
	}
	if err == nil || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Do = %v, want wrapped EIO", err)
	}
	if want := "flaky-op: giving up after 3 attempts"; err != nil && !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func TestDoHonorsContextDuringBackoff(t *testing.T) {
	p := Policy{BaseDelay: time.Hour, MaxDelay: time.Hour, MaxAttempts: 5}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		calls := 0
		done <- p.Do(ctx, "op", func() error {
			calls++
			if calls == 1 {
				close(started)
			}
			return syscall.EIO
		})
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Do = %v, want context.Canceled from the backoff wait", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return after cancellation during backoff")
	}
}

func TestDoCancelledBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := fastPolicy().Do(ctx, "op", func() error { calls++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("fn ran %d times under a dead context", calls)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	var prev []time.Duration
	for run := 0; run < 2; run++ {
		var ds []time.Duration
		for attempt := 1; attempt <= 8; attempt++ {
			d := p.backoff("op", attempt)
			lo := time.Duration(float64(p.BaseDelay) * 0.8)
			hi := time.Duration(float64(p.MaxDelay) * 1.2)
			if d < lo || d > hi {
				t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo, hi)
			}
			ds = append(ds, d)
		}
		if run == 1 {
			for i := range ds {
				if ds[i] != prev[i] {
					t.Errorf("attempt %d: backoff differs across runs: %v vs %v", i+1, ds[i], prev[i])
				}
			}
		}
		prev = ds
	}
	// Different ops draw different jitter (the draw folds in the op name).
	if p.backoff("op", 3) == p.backoff("other-op", 3) {
		t.Log("note: op-name jitter draws collided (possible but vanishingly unlikely)")
	}
}
