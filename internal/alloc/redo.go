package alloc

import (
	"encoding/binary"
	"fmt"

	"corundum/internal/crc"
	"corundum/internal/pmem"
)

// The allocator keeps itself crash-consistent with a small redo log, as the
// paper describes ("low-level redo logging in the allocator"). Every Alloc
// and Free computes the full set of word/byte updates it needs, writes them
// to the log together with a checksummed header, and commits with a single
// fence; only then are they applied to the live structures. Recovery
// replays a committed log (the checksum rejects torn ones); an uncommitted
// log is discarded. Either way every operation is all-or-nothing, at three
// fences per operation:
//
//  1. entries + header {count, crc} written, flushed, fence  — commit point
//  2. entries applied to their targets, flushed (deduped lines), fence
//  3. header cleared, flushed, fence — ready for the next operation
const (
	// logCapacity bounds the updates a single operation may stage. A worst
	// case free that coalesces across all orders touches a handful of words
	// per level plus the map-chunk checksums those levels dirty, still far
	// below this.
	logCapacity = 384
	// entrySize is the on-media size of one redo entry:
	// [off u64][val u64][width u64].
	entrySize = 24
	// logHeaderSize holds [count u64][crc u32][pad u32].
	logHeaderSize = 16
	// logAreaSize is the total media footprint of the redo log.
	logAreaSize = logHeaderSize + logCapacity*entrySize
)

type redoEntry struct {
	off   uint64
	val   uint64
	width uint8 // 1 or 8 bytes
}

// redoBatch stages updates for one crash-atomic operation. Reads through
// the batch observe staged values, so planning code never sees stale
// state. Batches are small (a few entries in the steady state), so
// staged-value lookups use a linear scan rather than a map, and the arena
// reuses one batch across operations to stay allocation-free.
type redoBatch struct {
	dev     pmem.Handle // the arena's alloc-redo handle
	logOff  uint64
	entries []redoEntry
}

func newBatch(dev pmem.Handle, logOff uint64) *redoBatch {
	return &redoBatch{dev: dev, logOff: logOff}
}

// reset prepares the batch for the next operation.
func (b *redoBatch) reset() { b.entries = b.entries[:0] }

func (b *redoBatch) find(off uint64) *redoEntry {
	for i := range b.entries {
		if b.entries[i].off == off {
			return &b.entries[i]
		}
	}
	return nil
}

func (b *redoBatch) stage(off, val uint64, width uint8) {
	if e := b.find(off); e != nil {
		// Overwrite in place so the log stays minimal and idempotent.
		e.val = val
		e.width = width
		return
	}
	if len(b.entries) >= logCapacity {
		panic(fmt.Sprintf("alloc: redo batch overflow (%d entries)", len(b.entries)))
	}
	b.entries = append(b.entries, redoEntry{off: off, val: val, width: width})
}

func (b *redoBatch) stage8(off, val uint64) { b.stage(off, val, 8) }
func (b *redoBatch) stage1(off uint64, val byte) {
	b.stage(off, uint64(val), 1)
}

// read8 returns the staged value for off if any, else the live media word.
func (b *redoBatch) read8(off uint64) uint64 {
	if e := b.find(off); e != nil && e.width == 8 {
		return e.val
	}
	return b.dev.Load8(off)
}

func (b *redoBatch) read1(off uint64) byte {
	if e := b.find(off); e != nil && e.width == 1 {
		return byte(e.val)
	}
	return loadByte(b.dev.Device, off)
}

// loadByte returns the byte at off.
func loadByte(dev *pmem.Device, off uint64) byte {
	var v [1]byte
	dev.LoadBytes(off, v[:])
	return v[0]
}

func encodeEntry(buf []byte, e redoEntry) {
	binary.LittleEndian.PutUint64(buf[0:], e.off)
	binary.LittleEndian.PutUint64(buf[8:], e.val)
	binary.LittleEndian.PutUint64(buf[16:], uint64(e.width))
}

// commit makes the batch durable and applies it (see the protocol above).
func (b *redoBatch) commit() {
	if len(b.entries) == 0 {
		return
	}
	// Entries and header in one contiguous region: one flush run, one fence.
	var ebuf [entrySize]byte
	var sum uint32
	off := b.logOff + logHeaderSize
	for _, e := range b.entries {
		encodeEntry(ebuf[:], e)
		b.dev.Write(off, ebuf[:])
		sum = crc.Update(sum, ebuf[:])
		off += entrySize
	}
	var hdr [logHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(len(b.entries)))
	binary.LittleEndian.PutUint32(hdr[8:], sum)
	b.dev.Write(b.logOff, hdr[:])
	b.dev.Flush(b.logOff, logHeaderSize+uint64(len(b.entries))*entrySize)
	b.dev.Fence() // commit point

	applyEntries(b.dev, b.entries)
	clearLogHeader(b.dev, b.logOff)
}

// applyEntries writes every entry home and persists them, flushing each
// touched cache line once.
func applyEntries(dev pmem.Handle, entries []redoEntry) {
	var w [8]byte
	for _, e := range entries {
		switch e.width {
		case 1:
			dev.Write(e.off, []byte{byte(e.val)})
		case 8:
			binary.LittleEndian.PutUint64(w[:], e.val)
			dev.Write(e.off, w[:])
		default:
			panic(fmt.Sprintf("alloc: redo entry width %d", e.width))
		}
	}
	var flushed [logCapacity]uint64
	nFlushed := 0
flushLoop:
	for _, e := range entries {
		line := e.off / pmem.CacheLineSize
		for _, f := range flushed[:nFlushed] {
			if f == line {
				continue flushLoop
			}
		}
		flushed[nFlushed] = line
		nFlushed++
		dev.Flush(line*pmem.CacheLineSize, pmem.CacheLineSize)
	}
	dev.Fence()
}

func clearLogHeader(dev pmem.Handle, logOff uint64) {
	var zero [logHeaderSize]byte
	dev.Write(logOff, zero[:])
	dev.Persist(logOff, logHeaderSize)
}

// replayLog finishes a committed-but-unapplied redo log found at recovery
// (or left behind by an interrupted commit). Replaying is idempotent, so
// it is safe even if the crash happened midway through the original apply.
// A torn log (checksum mismatch) means the commit point was never reached:
// the operation un-happened, and the log is discarded.
func replayLog(dev pmem.Handle, logOff uint64) {
	n := dev.Load8(logOff)
	if n == 0 {
		return
	}
	if n > logCapacity {
		// A count the writer could never have produced: media corruption of
		// the header word. The entry checksum is meaningless against it, so
		// discard the log like a torn one — the operation un-happens, and
		// journal recovery re-drives allocator work idempotently.
		clearLogHeader(dev, logOff)
		return
	}
	wantCRC := uint32(dev.Load8(logOff + 8))
	raw := make([]byte, n*entrySize)
	dev.LoadBytes(logOff+logHeaderSize, raw)
	if crc.Checksum(raw) != wantCRC {
		clearLogHeader(dev, logOff)
		return
	}
	entries := make([]redoEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		b := raw[i*entrySize:]
		entries = append(entries, redoEntry{
			off:   binary.LittleEndian.Uint64(b[0:]),
			val:   binary.LittleEndian.Uint64(b[8:]),
			width: uint8(binary.LittleEndian.Uint64(b[16:])),
		})
	}
	applyEntries(dev, entries)
	clearLogHeader(dev, logOff)
}
