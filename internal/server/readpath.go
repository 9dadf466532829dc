// The read path: one walk, two modes.
//
// The group-commit batcher holds a shard's writer lock across the whole
// journal-flush + fence + apply window, so under the classic RWMutex
// discipline one slow fence stalls every reader on the shard. Every read
// — GET, SCAN, and each snapshot window of BACKUP and replica bootstrap —
// therefore runs its walk through the pool's read view (no pool mutex, no
// journal slot, no transaction), first without any lock, bracketed by the
// shard's commit sequence (DESIGN §6.9):
//
//  1. snapshot the sequence; odd means a writer is inside its critical
//     section — yield and re-sample;
//  2. re-check key ownership inside the bracket (cursor advances and
//     layout swaps that affect this shard's keys happen under its
//     writer lock);
//  3. walk the structure through the view, CRC-verifying every group
//     and entry (workloads.GetView/ScanRangeView);
//  4. re-read the sequence: unchanged-and-even proves no writer
//     critical section overlapped the walk, so what was read is
//     committed state.
//
// Conflicts retry with bounded spins. Persistent conflict, or an anomaly
// inside a *stable* bracket (media damage, or a pointer into memory a
// commit recycled, which an unlocked walk cannot tell apart), runs the
// same walk through the same view under the shard's read lock, where
// committers are excluded and an anomaly is damage: ErrDataCorrupt.
// Writers can therefore never livelock readers, and no read ever waits
// for a journal slot.
//
// A read needs no recover: a view load is a plain atomic word load that
// makes no device op, so an injected crash cannot fire inside one.
package server

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// storeLock is a shard's reader/writer lock with a seqlock commit
// sequence fused on: the sequence is odd exactly while a writer holds
// the lock. Every existing Lock/Unlock call site (batcher commits,
// migration fences, restore swaps, replication applies) brackets its
// critical section automatically, so the lock-free readers' validation
// covers every mutation path, not just batched commits.
type storeLock struct {
	mu  sync.RWMutex
	seq atomic.Uint64
	// cut is set, for good, when power loss cut a writer section (write).
	cut atomic.Bool
}

func (l *storeLock) Lock() {
	l.mu.Lock()
	l.seq.Add(1) // now odd: readers must not trust what they see
}

func (l *storeLock) Unlock() {
	l.seq.Add(1) // even again: heap is stable committed state
	l.mu.Unlock()
}

// write runs fn as one writer critical section. A panic inside fn — a
// power cut (the device panics with pmem.ErrInjectedCrash), or a bug or
// damage panic out of the pool — fails the shard BEFORE the lock is
// released (haltOnPanic): the cut transaction's in-place stores may stay
// in live memory (a rollback cannot run on a dead device), and a reader
// that takes the lock or opens a bracket after the release re-checks cut
// after its walk (Server.read), so it is refused rather than answered
// from them. The panic returns as an ErrServerHalted error.
func (l *storeLock) write(fail func(error), fn func() error) (err error) {
	l.Lock()
	defer l.Unlock()
	defer l.haltOnPanic(fail, &err)
	return fn()
}

// read runs fn under the read lock, with write's panic handling: a
// panic out of fn fails the shard before the lock is released.
func (l *storeLock) read(fail func(error), fn func() error) (err error) {
	l.RLock()
	defer l.RUnlock()
	defer l.haltOnPanic(fail, &err)
	return fn()
}

// haltOnPanic, deferred inside one of a shard's lock sections, turns a
// panic out of the section into that shard's permanent failure, leaving
// the other shards serving: fail records it first, and cut is set only
// after, so cut set implies the shard is down. *err becomes the
// ErrServerHalted failure. Real power loss would kill the process; the
// conversion is what lets in-process crash tests observe the post-crash
// protocol, and it keeps a bug or corrupt-image panic from taking every
// shard and connection down with it.
func (l *storeLock) haltOnPanic(fail func(error), err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrServerHalted, r)
		fail(*err)
		l.cut.Store(true)
	}
}

func (l *storeLock) RLock()   { l.mu.RLock() }
func (l *storeLock) RUnlock() { l.mu.RUnlock() }

// readSeq samples the commit sequence (odd = commit in flight).
func (l *storeLock) readSeq() uint64 { return l.seq.Load() }

// ReadPathStats reports the read path's counters: walks served inside a
// bracket (no store lock taken), bracket conflicts that retried, and walks
// that fell back to the read lock (tests, benchmarks, STATS). A GET is one
// walk, a SCAN one per shard, a snapshot one per window.
func (s *Server) ReadPathStats() (lockFree, retries, fallbacks uint64) {
	return s.m.readsLockFree.Value(), s.m.readRetries.Value(), s.m.readFallbacks.Value()
}

// readSpins bounds how many bracket attempts one read makes before
// walking under the read lock. Spins are cheap (a yield and a re-sample);
// the bound only matters under sustained write pressure, where the lock's
// fairness takes over.
const readSpins = 8

// errMoved ends a read whose key changed owner: the caller re-routes.
var errMoved = errors.New("server: ownership moved off the shard")

// read runs walk against sh: inside a seqlock bracket up to readSpins
// times, then under sh's read lock. walk reads through sh.view and must
// have no effect outside its own results until read returns: a
// conflicted attempt is discarded and walked again. An error from a
// stable bracket other than errMoved is not trusted; the locked walk
// decides.
func (s *Server) read(sh *shard, walk func() error) error {
	for spin := 0; spin < readSpins && !s.lockedMode.Load(); spin++ {
		s0 := sh.lock.readSeq()
		if s0&1 != 0 {
			runtime.Gosched()
			continue
		}
		err := walk()
		if sh.lock.readSeq() != s0 {
			s.m.readRetries.Inc()
			continue
		}
		if err == nil {
			s.m.readsLockFree.Inc()
		}
		if err == nil || err == errMoved {
			return sh.cut(err)
		}
		break
	}
	s.m.readFallbacks.Inc()
	sh.lock.RLock()
	defer sh.lock.RUnlock()
	return sh.cut(walk())
}

// cut re-checks, after a walk, that no writer section of sh was cut:
// storeLock.write marks the shard down, then sets cut, before it
// releases the lock, so a walk that could have seen the cut batch's
// stores is refused here with the shard's failure. err passes through
// otherwise. The check is one atomic load.
func (sh *shard) cut(err error) error {
	if sh.lock.cut.Load() {
		return sh.down()
	}
	return err
}
