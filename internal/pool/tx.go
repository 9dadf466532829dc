package pool

import (
	"fmt"
	"time"

	"corundum/internal/journal"
)

// Transaction runs fn inside a failure-atomic transaction on this pool.
// The journal passed to fn is the capability needed by every mutating
// operation, which is how the TX-Journal-Only invariant is kept: journals
// exist only here.
//
// Every call takes a journal slot of its own. Code that should join the
// caller's transaction takes the caller's j as a parameter; calling
// Transaction again from inside fn opens a second, independent
// transaction on another slot (and, with every slot taken, waits — or
// fails with ErrBusy under SetAcquireTimeout). If fn returns an error or
// panics, the transaction rolls back; panics are re-raised after
// rollback, mirroring Corundum's behaviour under panic!().
func (p *Pool) Transaction(fn func(j *journal.Journal) error) error {
	if !p.IsOpen() {
		return ErrClosed
	}
	idx, err := p.acquireSlot()
	if err != nil {
		return err
	}
	j := p.journals[idx]

	var began time.Time
	if p.metrics.Load() != nil {
		began = time.Now()
	}
	j.Begin()
	done := false
	defer func() {
		if !done {
			// fn panicked: roll back, release, and let the panic continue.
			j.MarkAborted()
			p.endTx(j, began)
		}
	}()
	err = fn(j)
	done = true
	if err != nil {
		j.MarkAborted()
	}
	committed := p.endTx(j, began)
	if err == nil && !committed {
		return fmt.Errorf("pool: transaction aborted")
	}
	return err
}

// acquireSlot claims a free journal slot, waiting forever by default. With
// SetAcquireTimeout configured it gives up after that long and returns
// ErrBusy — the journal-exhaustion backpressure signal; no transaction
// state has been touched, so callers can always retry.
func (p *Pool) acquireSlot() (int, error) {
	// Fast path: a slot is free right now.
	select {
	case idx := <-p.freeJ:
		return idx, nil
	default:
	}
	to := time.Duration(p.acquireTO.Load())
	if to <= 0 {
		return <-p.freeJ, nil // waits if all journals are busy
	}
	t := time.NewTimer(to)
	defer t.Stop()
	select {
	case idx := <-p.freeJ:
		return idx, nil
	case <-t.C:
		return 0, ErrBusy
	}
}

// SetAcquireTimeout bounds how long Transaction waits for a free journal
// slot before failing with ErrBusy. Zero (the default) restores unbounded
// blocking. Safe to call concurrently with transactions.
func (p *Pool) SetAcquireTimeout(d time.Duration) {
	p.acquireTO.Store(int64(d))
}

// endTx ends the transaction and returns its journal to the free list.
// It reports whether the transaction committed. Metrics are observed
// before the journal is released: once it is back on the free list another
// goroutine's Begin may reset its counters.
func (p *Pool) endTx(j *journal.Journal, began time.Time) bool {
	committed := j.End()
	if m := p.metrics.Load(); m != nil && !began.IsZero() {
		m.observeTx(j, committed, began)
	}
	p.freeJ <- j.Arena()
	return committed
}
