package repl

import (
	"errors"
	"sync"
	"time"
)

// ErrEvicted reports that a requested sequence has fallen off the log's
// bounded retention window: the reader is too far behind for incremental
// catch-up and must full-resync from a snapshot. This is the primary's
// backpressure degradation — a slow replica costs itself a resync; it
// never stalls commits.
var ErrEvicted = errors.New("repl: sequence evicted from log")

// ErrLogClosed reports the log was shut down.
var ErrLogClosed = errors.New("repl: log closed")

// Log is the primary's in-memory replication stream: a bounded,
// commit-ordered window of published frames.
//
// Sequencing is two-phase because shards commit concurrently: a shard's
// committer Reserves the next global sequence just before its batch
// commits (the sequence rides the batch's transaction into the shard's
// durable cursor), then Publishes the frame after the commit — or
// Cancels the sequence if the commit failed, filling the gap with an
// empty frame so the stream stays dense. Readers only ever observe the
// contiguous prefix, so frames leave the log in exactly global commit
// order even though publications arrive out of order.
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond

	next    uint64           // highest reserved sequence
	contig  uint64           // highest contiguous published sequence
	pending map[uint64]Frame // published above contig, awaiting the gap fill
	frames  []Frame          // retained window: seqs (start, start+len]
	start   uint64           // frames[0].Seq - 1
	bytes   int              // wire bytes retained

	maxFrames int
	maxBytes  int
	pins      map[*Pin]struct{}
	closed    bool
}

// Pin holds a snapshot anchor: frames above Seq are protected from
// eviction (up to a 4× hard cap) until Release, so a bootstrap's delta
// tail is still in the window when the snapshot walk finishes. A pin
// taken with Hold is exempt from the cap.
type Pin struct {
	Seq  uint64
	l    *Log
	hold bool
}

// Release drops the pin. Safe to call more than once.
func (p *Pin) Release() {
	if p.l == nil {
		return
	}
	p.l.mu.Lock()
	delete(p.l.pins, p)
	p.l.evictLocked()
	p.l.mu.Unlock()
	p.l = nil
}

// NewLog builds a log whose next reserved sequence is lastSeq+1 (lastSeq
// is the primary's recovered durable sequence — the max cursor across
// its shards). maxFrames/maxBytes bound the retained window.
func NewLog(lastSeq uint64, maxFrames, maxBytes int) *Log {
	if maxFrames < 1 {
		maxFrames = 1
	}
	if maxBytes < 1 {
		maxBytes = 1 << 20
	}
	l := &Log{
		next: lastSeq, contig: lastSeq, start: lastSeq,
		pending:   make(map[uint64]Frame),
		maxFrames: maxFrames, maxBytes: maxBytes,
		pins: make(map[*Pin]struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Reserve hands out the next global stream sequence. The caller must
// eventually Publish or Cancel it; until then the stream is stalled at
// the gap (readers wait on the contiguous prefix).
func (l *Log) Reserve() uint64 {
	l.mu.Lock()
	l.next++
	s := l.next
	l.mu.Unlock()
	return s
}

// Publish delivers a committed frame for a reserved sequence.
func (l *Log) Publish(f Frame) {
	f.Bytes = f.WireSize()
	f.WallNS = time.Now().UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || f.Seq <= l.contig {
		// Closed: nobody can read it, and a stream closed over a sequence
		// left unresolved would only pile later frames up behind the hole.
		// At or below contig: a duplicate (cannot happen in practice).
		return
	}
	l.pending[f.Seq] = f
	for {
		nf, ok := l.pending[l.contig+1]
		if !ok {
			break
		}
		delete(l.pending, l.contig+1)
		l.contig++
		l.frames = append(l.frames, nf)
		l.bytes += nf.Bytes
	}
	l.evictLocked()
	l.cond.Broadcast()
}

// Cancel fills a reserved sequence whose batch failed to commit with an
// empty gap frame: replicas advance their cursor over it without
// touching their store, keeping the stream dense.
func (l *Log) Cancel(epoch, seq uint64) {
	l.Publish(Frame{Epoch: epoch, Seq: seq})
}

// Contiguous is the highest sequence every reader can reach: all frames
// at or below it are published (or gap-filled).
func (l *Log) Contiguous() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.contig
}

// LastSeq is the highest reserved sequence (possibly not yet committed).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// LowestRetained is the smallest sequence still in the window (contig+1
// if the window is empty).
func (l *Log) LowestRetained() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.start + 1
}

// CanResume reports whether a reader at sequence seq can continue
// incrementally: everything above seq is still retained.
func (l *Log) CanResume(seq uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return seq >= l.start && seq <= l.contig
}

// Pin anchors the current contiguous point for a snapshot: the returned
// pin's Seq is the stream position the snapshot is consistent with
// (every frame ≤ Seq is in the walked stores; every frame > Seq replays
// over the snapshot idempotently).
func (l *Log) Pin() *Pin { return l.pin(false) }

func (l *Log) pin(hold bool) *Pin {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := &Pin{Seq: l.contig, l: l, hold: hold}
	l.pins[p] = struct{}{}
	return p
}

// Hold is Pin for a reader in this process that keeps the whole tail — a
// backup's file sink. Its frames stay in the window however far commits
// run ahead: the memory such a reader would otherwise spend buffering
// the same frames itself, so it never has to start over the way a slow
// replica is made to.
func (l *Log) Hold() *Pin { return l.pin(true) }

// Through blocks until every sequence up to end is published or
// gap-filled, then returns the frames in (p.Seq, end] in stream order.
// ErrLogClosed means the stream ended first (shutdown, or the node left
// the role that fed it); ErrEvicted that a capped pin lost its tail.
func (p *Pin) Through(end uint64) ([]Frame, error) {
	l := p.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.contig < end && !l.closed {
		l.cond.Wait()
	}
	switch {
	case l.closed:
		return nil, ErrLogClosed
	case p.Seq < l.start:
		return nil, ErrEvicted
	case end <= p.Seq:
		return nil, nil
	}
	return append([]Frame(nil), l.frames[p.Seq-l.start:end-l.start]...), nil
}

// Next blocks until the frame after `after` is available, then returns
// it. ErrEvicted means the reader fell out of the window and must
// full-resync; ErrLogClosed means shutdown; a nil error with ok=false
// means the timeout expired with no new frame (send a heartbeat).
func (l *Log) Next(after uint64, timeout time.Duration, stop <-chan struct{}) (Frame, bool, error) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer timer.Stop()
	// A stopped reader must not block forever on the cond var: poke it.
	done := make(chan struct{})
	defer close(done)
	if stop != nil {
		go func() {
			select {
			case <-stop:
				l.mu.Lock()
				l.cond.Broadcast()
				l.mu.Unlock()
			case <-done:
			}
		}()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed {
			return Frame{}, false, ErrLogClosed
		}
		if stop != nil {
			select {
			case <-stop:
				return Frame{}, false, ErrLogClosed
			default:
			}
		}
		if after < l.start {
			return Frame{}, false, ErrEvicted
		}
		if after < l.contig {
			return l.frames[after-l.start], true, nil
		}
		if !time.Now().Before(deadline) {
			return Frame{}, false, nil
		}
		l.cond.Wait()
	}
}

// Lag describes how far behind a reader at ackSeq is.
type Lag struct {
	Frames  uint64
	Bytes   uint64
	Seconds float64
}

// LagFrom computes the lag of a reader whose last acknowledged sequence
// is ackSeq. Bytes only counts retained frames (an evicted backlog is
// under-reported; Frames is exact).
func (l *Log) LagFrom(ackSeq uint64) Lag {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ackSeq >= l.contig {
		return Lag{}
	}
	lag := Lag{Frames: l.contig - ackSeq}
	lo := ackSeq
	if lo < l.start {
		lo = l.start
	}
	for _, f := range l.frames[lo-l.start:] {
		lag.Bytes += uint64(f.Bytes)
	}
	if len(l.frames) > 0 && lo < l.contig {
		oldest := l.frames[lo-l.start].WallNS
		lag.Seconds = float64(time.Now().UnixNano()-oldest) / 1e9
	}
	return lag
}

// Close ends the stream: every waiting reader wakes with ErrLogClosed and
// later publishes are dropped.
func (l *Log) Close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// evictLocked trims the window to maxFrames/maxBytes. Pins protect
// frames above the lowest pin, but only up to a 4× hard cap — past
// that, bounded memory wins and the pinned reader eats a resync. Holds
// protect theirs outright.
func (l *Log) evictLocked() {
	minPin := l.contig + 1  // lowest pin-protected sequence
	minHold := l.contig + 1 // lowest sequence protected without the cap
	for p := range l.pins {
		if p.Seq+1 < minPin {
			minPin = p.Seq + 1
		}
		if p.hold && p.Seq+1 < minHold {
			minHold = p.Seq + 1
		}
	}
	for l.contig > l.start {
		size := l.contig - l.start
		if size <= uint64(l.maxFrames) && l.bytes <= l.maxBytes {
			break
		}
		if lowest := l.start + 1; lowest >= minHold || (lowest >= minPin && size <= uint64(4*l.maxFrames)) {
			break // held, or pinned and under the hard cap: keep
		}
		l.bytes -= l.frames[0].Bytes
		l.frames = l.frames[1:]
		l.start++
	}
	// Copy off the shared backing array once it is mostly dead.
	if cap(l.frames) > 2*len(l.frames)+64 {
		l.frames = append([]Frame(nil), l.frames...)
	}
}
