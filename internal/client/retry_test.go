package client

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRetryBusyBackoffBounds pins the full-jitter schedule: every drawn
// delay lies in (0, window], where the window starts at base and doubles
// per retry up to cap. The sleep hook captures the draws; nothing really
// sleeps.
func TestRetryBusyBackoffBounds(t *testing.T) {
	orig := retrySleep
	t.Cleanup(func() { retrySleep = orig })
	var delays []time.Duration
	retrySleep = func(_ context.Context, d time.Duration) error {
		delays = append(delays, d)
		return nil
	}

	const (
		attempts = 10
		base     = time.Millisecond
		cap      = 8 * time.Millisecond
	)
	calls := 0
	line, err := Retry(context.Background(), attempts, base, cap, IsBusyReply, func() (string, error) {
		calls++
		return "-BUSY all journal slots busy", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !IsBusyReply(line) {
		t.Fatalf("final line %q, want -BUSY", line)
	}
	if calls != attempts {
		t.Fatalf("do ran %d times, want %d", calls, attempts)
	}
	if len(delays) != attempts-1 {
		t.Fatalf("slept %d times, want %d", len(delays), attempts-1)
	}
	window := base
	for i, d := range delays {
		if d <= 0 || d > window {
			t.Errorf("delay %d = %v, want in (0, %v]", i, d, window)
		}
		if window *= 2; window > cap {
			window = cap
		}
	}
}

// TestRetryBusyStopsOnContextCancel cancels the context from inside a
// backoff sleep: Retry must return the context's error without
// another attempt.
func TestRetryBusyStopsOnContextCancel(t *testing.T) {
	orig := retrySleep
	t.Cleanup(func() { retrySleep = orig })

	ctx, cancel := context.WithCancel(context.Background())
	retrySleep = func(ctx context.Context, _ time.Duration) error {
		cancel()
		return ctx.Err()
	}
	calls := 0
	_, err := Retry(ctx, 10, time.Millisecond, 8*time.Millisecond, IsBusyReply, func() (string, error) {
		calls++
		return "-BUSY all journal slots busy", nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("do ran %d times after cancellation, want 1", calls)
	}
}

// TestRetryBusyPreCancelledContext never calls do when the context is
// already done.
func TestRetryBusyPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err := Retry(ctx, 5, time.Millisecond, 8*time.Millisecond, IsBusyReply, func() (string, error) {
		calls++
		return "+OK", nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("do ran %d times with dead context, want 0", calls)
	}
}

// TestReadonlyPrimaryIgnoresProse: only a host:port is a redirect. A
// down shard's refusal starts "pool: degraded ..." — taking "pool:" for
// an address re-aims a session at a host of that name for good.
func TestReadonlyPrimaryIgnoresProse(t *testing.T) {
	for line, want := range map[string]string{
		"-READONLY 127.0.0.1:6380 replica; send mutations to the primary": "127.0.0.1:6380",
		"-READONLY [::1]:6380 replica":                                    "[::1]:6380",
		"-READONLY pool: degraded read-only mode: shard 0 is down":        "",
		"-READONLY degraded":                                              "",
		"-READONLY":                                                       "",
		"-BUSY 127.0.0.1:6380":                                            "",
	} {
		if got := ReadonlyPrimary(line); got != want {
			t.Errorf("ReadonlyPrimary(%q) = %q, want %q", line, got, want)
		}
	}
}
