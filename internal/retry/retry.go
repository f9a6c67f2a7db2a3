// Package retry is the bounded-backoff recovery layer: context-aware retry
// of operations whose failures are classified transient, with exponential
// backoff and deterministic seeded jitter. It exists so a transient EIO on a
// checkpoint write no longer kills a multi-hour sharded run — the paper's
// platform treats partial failure as the steady state, and so does this
// stack (see DESIGN.md, "Failure semantics").
//
// The fault taxonomy has three classes; this package implements two:
//
//   - transient: worth retrying (EIO/EINTR/EAGAIN-class syscall failures,
//     injected faultpoint errors);
//   - fatal: retrying cannot help (context cancellation and deadlines,
//     validation errors, missing files, truncation — and, conservatively,
//     anything unrecognized);
//   - poison: data that reads cleanly but must not be trusted (corrupt
//     checkpoints). Poison is not retried here — the shard layer degrades
//     structurally by discarding the artifact and recomputing from source.
package retry

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math/rand/v2"
	"syscall"
	"time"
)

// Class is an error's retry classification.
type Class int

const (
	// Fatal errors terminate the operation immediately.
	Fatal Class = iota
	// Transient errors are retried under the policy's backoff schedule.
	Transient
)

// transienter is the marker interface the classifier honors; faultpoint's
// injected errors implement it without either package importing the other.
type transienter interface{ Transient() bool }

// Classify is the taxonomy Do retries by. Context errors, missing files, and
// truncation are Fatal; errors that report Transient() and EIO-class syscall
// failures are Transient; everything unrecognized is Fatal — the
// conservative default, so a validation error can never loop through a
// backoff schedule.
func Classify(err error) Class {
	if err == nil {
		return Fatal
	}
	// An error's own Transient() report (faultpoint injections) wins,
	// checked before the context sentinels.
	var t transienter
	if errors.As(err, &t) {
		if t.Transient() {
			return Transient
		}
		return Fatal
	}
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return Fatal
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, fs.ErrPermission):
		return Fatal
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.EOF):
		return Fatal // truncation is poison for the caller to degrade on, not retry
	case errors.Is(err, syscall.EIO), errors.Is(err, syscall.EINTR),
		errors.Is(err, syscall.EAGAIN), errors.Is(err, syscall.EBUSY),
		errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.EPIPE):
		return Transient
	default:
		return Fatal
	}
}

// Policy is a bounded exponential-backoff schedule. The zero value is
// usable: 4 attempts, 10ms base doubling to a 500ms cap.
type Policy struct {
	// MaxAttempts bounds total attempts, the first included (default 4).
	MaxAttempts int
	// BaseDelay is the sleep before attempt 2 (default 10ms); each further
	// attempt doubles it up to MaxDelay (default 500ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// Each sleep is multiplier times the one before it, up to MaxDelay, then
// spread uniformly over ±jitter of itself. The draw is deterministic in
// (op, attempt), so a chaos run replays its exact timing envelope.
const (
	multiplier = 2
	jitter     = 0.2
)

// withDefaults fills the zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	return p
}

// Do runs fn under the policy: transient errors are retried after a
// backoff sleep until MaxAttempts or ctx cancellation, fatal errors (and
// exhaustion) return immediately. The returned error is fn's last error,
// wrapped with the op and attempt count when retries were exhausted, or
// ctx's error when the wait was interrupted.
func (p Policy) Do(ctx context.Context, op string, fn func() error) error {
	p = p.withDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = fn(); err == nil {
			return nil
		}
		if Classify(err) != Transient {
			return err
		}
		if attempt >= p.MaxAttempts {
			return fmt.Errorf("%s: giving up after %d attempts: %w", op, attempt, err)
		}
		timer := time.NewTimer(p.backoff(op, attempt))
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// Backoff returns the sleep the policy schedules after failed attempt
// (1-based): exponential, capped, deterministically jittered. It fills the
// same defaults as Do, for callers running their own retry loop (the
// client's SSE reconnect) that still want the shared schedule shape.
func (p Policy) Backoff(op string, attempt int) time.Duration {
	return p.withDefaults().backoff(op, attempt)
}

// backoff returns the sleep before attempt+1: exponential in the attempt,
// capped, jittered deterministically in (op, attempt).
func (p Policy) backoff(op string, attempt int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	u := jitterDraw(op, attempt) // uniform [0, 1)
	d *= 1 + float64(jitter*(float64(2*u)-1))
	return time.Duration(d)
}

// jitterDraw derives the deterministic uniform draw for (op, attempt). The
// hashed block's first word is a fixed zero seed: changing it would move
// every sleep.
func jitterDraw(op string, attempt int) float64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[8+i] = byte(uint64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(op))
	return rand.New(rand.NewPCG(h.Sum64(), 0x9e3779b97f4a7c15)).Float64()
}
