package common

import (
	"encoding/binary"
	"errors"
	"slices"
)

// UndoLog is a minimal persistent undo log the undo-based baseline models
// (PMDK, Atlas, go-pmem) share. The knobs express the disciplines the
// paper's Figure 1 compares:
//
//   - dedup: log each range once per section (PMDK's range tree, Corundum's
//     first-DerefMut rule) or on every store (Atlas and go-pmem instrument
//     each store individually).
//   - eagerData: flush the data write immediately after every store (Atlas keeps
//     persistent state consistent at every point inside a failure-atomic
//     section) instead of batching data flushes at commit.
//
// Every log append is persisted (flush + fence) before the corresponding
// data write, as undo logging requires.
type UndoLog struct {
	p         *BasePool
	dedup     map[uint64]struct{}
	eagerData bool

	tail   uint64
	ranges []span
	old    []byte // scratch for one snapshot
}

type span struct{ off, n uint64 }

// ErrLogFull reports that a section overflowed the pool's log area.
var ErrLogFull = errors.New("baseline: undo log full")

// NewUndoLog starts a fresh section log.
func NewUndoLog(p *BasePool, dedup, eagerData bool) *UndoLog {
	l := &UndoLog{p: p, eagerData: eagerData, tail: p.LogOff}
	if dedup {
		l.dedup = make(map[uint64]struct{}, 16)
	}
	return l
}

// Log snapshots [off, off+n) before the caller overwrites it.
func (l *UndoLog) Log(off, n uint64) error {
	if l.dedup != nil {
		if _, ok := l.dedup[off]; ok {
			return nil
		}
	}
	pad := (n + 7) &^ 7
	if l.tail+16+pad > l.p.LogOff+l.p.LogCap {
		return ErrLogFull
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], off)
	binary.LittleEndian.PutUint64(hdr[8:], n)
	l.p.Dev.Write(l.tail, hdr[:])
	l.old = slices.Grow(l.old[:0], int(n))[:n]
	l.p.Dev.LoadBytes(off, l.old)
	l.p.Dev.Write(l.tail+16, l.old)
	// The snapshot must be durable before the data write.
	l.p.Dev.Persist(l.tail, 16+pad)
	l.tail += 16 + pad
	if l.dedup != nil {
		l.dedup[off] = struct{}{}
	}
	l.ranges = append(l.ranges, span{off, n})
	return nil
}

// DataWritten tells the log that [off, off+n) was just stored; eager
// disciplines persist it immediately.
func (l *UndoLog) DataWritten(off, n uint64) {
	if l.eagerData {
		l.p.Dev.Persist(off, n)
	}
}

// Commit persists all mutated ranges and truncates the log.
func (l *UndoLog) Commit() {
	if len(l.ranges) == 0 {
		return
	}
	if !l.eagerData {
		for _, r := range l.ranges {
			l.p.Dev.Flush(r.off, r.n)
		}
		l.p.Dev.Fence()
	}
	l.truncate()
}

// Abort restores every logged range in reverse order and truncates.
func (l *UndoLog) Abort() {
	pos := l.p.LogOff
	var entries []span // log positions
	for pos < l.tail {
		n := l.p.Dev.Load8(pos + 8)
		entries = append(entries, span{pos, n})
		pos += 16 + ((n + 7) &^ 7)
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		off := l.p.Dev.Load8(e.off)
		l.p.Dev.Copy(off, e.off+16, e.n)
		l.p.Dev.Flush(off, e.n)
	}
	l.p.Dev.Fence()
	l.truncate()
}

func (l *UndoLog) truncate() {
	// A zero length-word at the log head marks it empty; models keep their
	// valid-entry count implicitly via the tail they persist elsewhere.
	l.p.Dev.Write(l.p.LogOff+8, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	l.p.Dev.Persist(l.p.LogOff+8, 8)
	l.tail = l.p.LogOff
	l.ranges = l.ranges[:0]
	if l.dedup != nil {
		clear(l.dedup)
	}
}
