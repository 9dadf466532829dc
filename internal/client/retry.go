package client

import (
	"context"
	"math/rand"
	"net"
	"strings"
	"time"
)

// IsBusyReply reports whether a protocol reply line is the retryable
// journal-exhaustion signal (-BUSY ...). Unlike -ERR replies, a -BUSY
// request never began executing, so re-sending it is always safe.
func IsBusyReply(line string) bool {
	return strings.HasPrefix(line, "-BUSY")
}

// retrySleep waits for d or until ctx is done, whichever comes first, and
// reports the context's error when it cut the wait short. Tests swap it
// to capture the drawn backoff delays without really sleeping.
var retrySleep = func(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// IsMovedReply reports whether a reply line is the migration re-route
// signal (-MOVED <shard> ...): the key's range is moving (or has moved)
// to another shard. The op never executed; re-sending it after a short
// backoff is safe and, once the batch in flight lands, the owner
// answers.
func IsMovedReply(line string) bool {
	return strings.HasPrefix(line, "-MOVED")
}

// MovedShard extracts the new owner from a -MOVED reply, or -1 when the
// line is not one. Clients talking to a single endpoint can ignore it
// (the server routes internally); shard-aware clients use it to re-aim.
func MovedShard(line string) int {
	if !IsMovedReply(line) {
		return -1
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return -1
	}
	n := 0
	for _, c := range fields[1] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
		if n > 1<<20 {
			return -1
		}
	}
	return n
}

// IsReadonlyReply reports whether a reply line is the read-only refusal
// (-READONLY ...): the shard serving this key is degraded or down, or
// the server is a replica redirecting mutations to its primary (then the
// reply's first token is the primary's address — see ReadonlyPrimary).
func IsReadonlyReply(line string) bool {
	return strings.HasPrefix(line, "-READONLY")
}

// ReadonlyPrimary extracts the primary's address from a replica's
// -READONLY redirect, or "" when the reply is a plain degraded-pool
// refusal (no address to follow). The address is the first token after
// the verb, and only if it splits into a host and a non-empty port:
// refusal prose has colons too ("-READONLY pool: degraded ..."), and a
// session that re-aimed at "pool:" would dial a host by that name
// forever.
func ReadonlyPrimary(line string) string {
	if !IsReadonlyReply(line) {
		return ""
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return ""
	}
	if _, port, err := net.SplitHostPort(fields[1]); err != nil || port == "" {
		return ""
	}
	return fields[1]
}

// IsRetryableReply reports whether a reply is worth re-sending after a
// backoff: -BUSY (backpressure, admin streams, replica bootstrap) and
// -MOVED (mid-migration hand-off) name requests that never executed and
// succeed once the transient passes; a replica's -READONLY redirect
// (the variant carrying a primary address) resolves as soon as the
// client re-aims — or the replica is promoted. A plain -READONLY
// (degraded media) is excluded: it needs an operator.
func IsRetryableReply(line string) bool {
	return IsBusyReply(line) || IsMovedReply(line) || ReadonlyPrimary(line) != ""
}

// Retry runs do until predicate says its reply is final, attempts are
// exhausted, or ctx is done, sleeping between tries with full-jitter
// exponential backoff (uniform draw over the current window, doubling up
// to cap — synchronized clients spread out instead of re-colliding in
// lockstep). A nil predicate retries every transient refusal the server
// can answer with: -BUSY, -MOVED, and a replica's -READONLY redirect
// (see IsRetryableReply) — the loop to run mutations through while a
// RESHARD, BACKUP, RESTORE, or failover is in flight: acknowledged
// writes stay exactly-once (refused ops never executed), and the retries
// land on the new owner as soon as the hand-off completes. It returns
// the last reply; a transport error
// from do is returned immediately — only explicit protocol refusals are
// retried — and a context cancellation during a backoff sleep returns
// ctx.Err() without another attempt.
func Retry(ctx context.Context, attempts int, base, cap time.Duration,
	predicate func(line string) bool, do func() (string, error)) (string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if attempts <= 0 {
		attempts = 1
	}
	if base <= 0 {
		base = time.Millisecond
	}
	if cap < base {
		cap = base
	}
	if predicate == nil {
		predicate = IsRetryableReply
	}
	window := base
	var line string
	var err error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return line, err
		}
		line, err = do()
		if err != nil || !predicate(line) {
			return line, err
		}
		if a == attempts-1 {
			break
		}
		if err := retrySleep(ctx, time.Duration(rand.Int63n(int64(window))+1)); err != nil {
			return line, err
		}
		if window *= 2; window > cap {
			window = cap
		}
	}
	return line, err
}
