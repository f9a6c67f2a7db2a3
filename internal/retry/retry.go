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
//     injected faultpoint errors, anything marked MarkTransient);
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

// transienter is the marker interface the default classifier honors;
// faultpoint's injected errors implement it without either package
// importing the other.
type transienter interface{ Transient() bool }

type marked struct {
	err       error
	transient bool
}

func (m *marked) Error() string   { return m.err.Error() }
func (m *marked) Unwrap() error   { return m.err }
func (m *marked) Transient() bool { return m.transient }

// MarkTransient wraps err so Classify reports it Transient.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, transient: true}
}

// MarkFatal wraps err so Classify reports it Fatal even when an inner error
// would classify transient.
func MarkFatal(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, transient: false}
}

// Classify is the default taxonomy. Context errors, missing files, and
// truncation are Fatal; marked errors and EIO-class syscall failures are
// Transient; everything unrecognized is Fatal — the conservative default, so
// a validation error can never loop through a backoff schedule.
func Classify(err error) Class {
	if err == nil {
		return Fatal
	}
	// Explicit marks (and faultpoint injections) win, checked before the
	// context sentinels so a MarkFatal around a wrapped cancellation stays
	// coherent either way.
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
// usable: Do fills defaults (4 attempts, 10ms base doubling to a 500ms cap,
// 20% jitter, the package classifier).
type Policy struct {
	// MaxAttempts bounds total attempts, the first included (default 4).
	MaxAttempts int
	// BaseDelay is the sleep before attempt 2 (default 10ms); each further
	// attempt multiplies it by Multiplier (default 2) up to MaxDelay
	// (default 500ms).
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter spreads each sleep uniformly over ±Jitter of itself
	// (default 0.2). The draw is deterministic in (Seed, op, attempt), so a
	// seeded chaos run replays its exact timing envelope.
	Jitter float64
	// Seed seeds the jitter draws (0 is a valid, fixed seed).
	Seed int64
	// Classify overrides the package classifier when non-nil.
	Classify func(error) Class
	// OnRetry, when non-nil, observes each scheduled retry before its sleep
	// (logging hooks; keep it cheap).
	OnRetry func(op string, attempt int, err error, sleep time.Duration)
}

// Do runs fn under the policy: transient errors are retried after a
// backoff sleep until MaxAttempts or ctx cancellation, fatal errors (and
// exhaustion) return immediately. The returned error is fn's last error,
// wrapped with the op and attempt count when retries were exhausted, or
// ctx's error when the wait was interrupted.
func (p Policy) Do(ctx context.Context, op string, fn func() error) error {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	} else if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	classify := p.Classify
	if classify == nil {
		classify = Classify
	}
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = fn(); err == nil {
			return nil
		}
		if classify(err) != Transient {
			return err
		}
		if attempt >= p.MaxAttempts {
			return fmt.Errorf("%s: giving up after %d attempts: %w", op, attempt, err)
		}
		sleep := p.backoff(op, attempt)
		if p.OnRetry != nil {
			p.OnRetry(op, attempt, err, sleep)
		}
		timer := time.NewTimer(sleep)
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
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	return p.backoff(op, attempt)
}

// backoff returns the sleep before attempt+1: exponential in the attempt,
// capped, jittered deterministically in (Seed, op, attempt).
func (p Policy) backoff(op string, attempt int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.Jitter > 0 {
		u := jitterDraw(p.Seed, op, attempt) // uniform [0, 1)
		d *= 1 + float64(p.Jitter*(float64(2*u)-1))
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// jitterDraw derives the deterministic uniform draw for (seed, op, attempt).
func jitterDraw(seed int64, op string, attempt int) float64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
		buf[8+i] = byte(uint64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(op))
	return rand.New(rand.NewPCG(h.Sum64(), 0x9e3779b97f4a7c15)).Float64()
}
