package journal

import (
	"encoding/binary"
	"fmt"
	"slices"

	"corundum/internal/alloc"
	"corundum/internal/crc"
	"corundum/internal/pmem"
)

func leUint64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func putUint64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// Log entry kinds. entryEnd doubles as the buffer terminator, so an empty
// buffer is a single zero byte.
const (
	entryEnd   = 0
	entryData  = 1 // undo log: payload holds the old bytes of [off, off+size)
	entryAlloc = 2 // allocation to reclaim on abort
	entryDrop  = 3 // deallocation to apply on commit
	entryLink  = 4 // continuation: the log continues in the page at off

	// entryFlushOnly is volatile-only and never reaches the media: it marks
	// a mutated range inside a block this same transaction freshly
	// allocated. There are no old bytes to restore — rollback reclaims the
	// whole block through its alloc record — but commit must still flush
	// the range before the commit fence. See Journal.DataLog.
	entryFlushOnly = 0xFE
)

// chainPageSize is the size of journal continuation pages. When a
// transaction outgrows its head buffer, the journal chains pages allocated
// from its arena, as the paper's journals do; the link entry is sealed in
// the same crash-atomic step as the page allocation, so pages can never
// leak.
const chainPageSize = 64 << 10

// entryHdrSize is the fixed header per entry:
//
//	[0]     kind
//	[1:4]   pad
//	[4:8]   crc32 over (kind, off, size, payload)
//	[8:16]  off
//	[16:24] size
//
// Data entries carry a payload of size bytes after the header, padded to 8.
// The CRC makes torn tail entries detectable: an entry that did not finish
// persisting before a crash fails its checksum and is treated as never
// appended, which is sound because the caller only mutates data after the
// corresponding append returned.
const entryHdrSize = 24

type entry struct {
	kind byte
	off  uint64
	size uint64
	pl   uint64 // data entries: device offset of the payload in the log
}

// entryCRC seeds every entry checksum with the transaction epoch, binding
// entries to the state word that governs them.
func entryCRC(epoch uint64, kind byte, off, size uint64, payload []byte) uint32 {
	var h [25]byte
	binary.LittleEndian.PutUint64(h[0:], epoch)
	h[8] = kind
	binary.LittleEndian.PutUint64(h[9:], off)
	binary.LittleEndian.PutUint64(h[17:], size)
	return crc.Update(crc.Checksum(h[:]), payload)
}

func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// terminator is the entryEnd byte that closes the log after its last
// entry; a fresh continuation page starts with one.
var terminator = []byte{entryEnd}

// append writes a complete entry followed by a fresh terminator and
// persists it with a single fence. The first append of a transaction also
// writes the stateRunning word at the buffer head — it shares the first
// entry's cache line, so durably activating the journal costs no extra
// fence.
func (j *Journal) append(kind byte, off, size uint64, payload []byte) error {
	plen := pad8(uint64(len(payload)))
	total := entryHdrSize + plen
	if err := j.ensureRoom(total); err != nil {
		return err
	}
	// Flush from the watermark: this covers any deferred (drop) entries
	// sitting between the last persisted byte and this entry, so recovery's
	// scan can never hit a torn gap before a persisted entry.
	flushFrom := j.flushedTo
	if !j.started {
		j.writeState(stateRunning)
		j.started = true
	}
	var hdr [entryHdrSize]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[4:], entryCRC(j.epoch, kind, off, size, payload))
	binary.LittleEndian.PutUint64(hdr[8:], off)
	binary.LittleEndian.PutUint64(hdr[16:], size)
	j.log.Write(j.tail, hdr[:])
	if len(payload) > 0 {
		j.log.Write(j.tail+entryHdrSize, payload)
	}
	j.log.Write(j.tail+total, terminator)
	j.log.Flush(flushFrom, j.tail+total+1-flushFrom)
	j.log.Fence()
	j.flushedTo = j.tail + total
	j.live = append(j.live, entry{kind: kind, off: off, size: size, pl: j.tail + entryHdrSize})
	j.tail += total
	j.logBytes += total
	return nil
}

// reserve stages an alloc entry whose kind/crc/off words stay invalid until
// the allocator's redo batch seals them. It pre-persists the size field and
// the trailing terminator (the batch's own fences order them before the
// allocation's commit point), along with the stateRunning word on a
// transaction's first append.
func (j *Journal) reserve(kind byte, size uint64) (reserved, error) {
	if err := j.ensureRoom(entryHdrSize); err != nil {
		return reserved{}, err
	}
	return j.reserveAt(j.tail, kind, size), nil
}

// reserved names an entry reserveAt staged: its header offset, and the
// kind and size its seal gives it.
type reserved struct {
	hdr  uint64
	kind byte
	size uint64
}

// allocSealed allocates r.size bytes from the journal's arena, sealing the
// reserved entry r in the allocation's crash-atomic redo batch.
func (j *Journal) allocSealed(r reserved, payload []byte) (uint64, error) {
	j.sealing = r
	return j.heap.AllocEx(j.arena, r.size, payload, j.seal)
}

// sealReserved returns the word writes that validate the entry being
// sealed at the allocated block: the off and size fields and the
// kind+crc word. Folded into the allocator's redo batch, the entry
// becomes valid exactly when the allocation commits. Every field the
// checksum covers is part of the seal — nothing about the entry's
// validity depends on fence ordering, which adversarial cache eviction
// does not respect.
func (j *Journal) sealReserved(block uint64) []alloc.Update {
	r := j.sealing
	crc := entryCRC(j.epoch, r.kind, block, r.size, nil)
	j.sealWords = [3]alloc.Update{
		{Off: r.hdr + 8, Val: block, Width: 8},
		{Off: r.hdr + 16, Val: r.size, Width: 8},
		{Off: r.hdr, Val: uint64(r.kind) | uint64(crc)<<32, Width: 8},
	}
	return j.sealWords[:]
}

// appendDeferred writes an entry without persisting it; commit flushes the
// log tail before the commit point. Only entry kinds that are never read
// on the rollback path (drops) may use it.
func (j *Journal) appendDeferred(kind byte, off, size uint64) error {
	total := uint64(entryHdrSize)
	if err := j.ensureRoom(total); err != nil {
		return err
	}
	if !j.started {
		j.writeState(stateRunning)
		j.started = true
	}
	var hdr [entryHdrSize]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[4:], entryCRC(j.epoch, kind, off, size, nil))
	binary.LittleEndian.PutUint64(hdr[8:], off)
	binary.LittleEndian.PutUint64(hdr[16:], size)
	j.log.Write(j.tail, hdr[:])
	j.log.Write(j.tail+total, terminator)
	// flushedTo intentionally not advanced: this entry is deferred.
	j.live = append(j.live, entry{kind: kind, off: off, size: size})
	j.tail += total
	j.logBytes += total
	return nil
}

// ensureRoom guarantees the current segment can hold an entry of `total`
// bytes plus a terminator and, if not, chains a continuation page. A link
// entry (header + terminator) is always reserved at the segment end so
// chaining itself can never run out of room.
func (j *Journal) ensureRoom(total uint64) error {
	if total+entryHdrSize+1 > chainPageSize {
		return ErrTxTooLarge // the entry cannot fit even a fresh page
	}
	if j.tail+total+1+entryHdrSize <= j.segEnd {
		return nil
	}
	return j.chainPage()
}

// chainPage allocates a continuation page from the journal's arena and
// links it with an entryLink sealed inside the allocation's crash-atomic
// redo batch: after a crash, the link entry is valid exactly when the page
// is allocated, so pages never leak and scans never follow garbage.
func (j *Journal) chainPage() error {
	r := j.reserveAt(j.tail, entryLink, chainPageSize)
	// The page's first byte must be a terminator once the link goes live;
	// the 1-byte payload is staged through the same redo batch.
	page, err := j.allocSealed(r, terminator)
	if err != nil {
		j.tail = r.hdr
		return fmt.Errorf("%w: chaining a journal page: %v", ErrTxTooLarge, err)
	}
	j.pages = append(j.pages, page)
	j.tail = page
	j.segEnd = page + chainPageSize
	j.flushedTo = page
	j.logBytes += entryHdrSize
	return nil
}

// reserveAt writes an unsealed entry header (kind stays invalid) at pos
// and pre-flushes it, covering any deferred entries below the watermark.
func (j *Journal) reserveAt(pos uint64, kind byte, size uint64) reserved {
	if !j.started {
		j.writeState(stateRunning)
		j.started = true
	}
	if j.flushedTo < pos {
		j.log.Flush(j.flushedTo, pos-j.flushedTo)
		j.flushedTo = pos
	}
	var hdr [entryHdrSize]byte
	binary.LittleEndian.PutUint64(hdr[16:], size)
	j.log.Write(pos, hdr[:])
	j.log.Write(pos+entryHdrSize, terminator)
	j.log.Flush(pos, entryHdrSize+1)
	j.flushedTo = pos + entryHdrSize
	return reserved{pos, kind, size}
}

func (j *Journal) finishAppend(hdrOff uint64) {
	j.tail = hdrOff + entryHdrSize
	j.logBytes += entryHdrSize
}

// scanBuffer decodes a journal's entries under the given epoch, stopping
// at the terminator or at the first entry with a bad checksum (a torn
// tail, or an entry from a different transaction).
func scanBuffer(dev *pmem.Device, bufOff, bufCap, epoch uint64) []entry {
	var entries []entry
	var hdr [entryHdrSize]byte
	var buf []byte // payload scratch: only the checksum reads it
	pos := bufOff + stateSize
	end := bufOff + bufCap
	const maxPages = 1 << 16 // cycle/corruption guard
	pages := 0
	for pos+entryHdrSize <= end {
		dev.LoadBytes(pos, hdr[:])
		kind := hdr[0]
		if kind == entryEnd {
			break
		}
		crc := binary.LittleEndian.Uint32(hdr[4:])
		off := binary.LittleEndian.Uint64(hdr[8:])
		size := binary.LittleEndian.Uint64(hdr[16:])
		var payload []byte
		next := pos + entryHdrSize
		if kind == entryData {
			if size > end-next || next+pad8(size) > end {
				break // corrupt length; treat as torn
			}
			buf = slices.Grow(buf[:0], int(size))
			payload = buf[:size]
			dev.LoadBytes(next, payload)
			next += pad8(size)
		}
		if entryCRC(epoch, kind, off, size, payload) != crc {
			break // torn or foreign entry: never completed, never acted on
		}
		entries = append(entries, entry{kind: kind, off: off, size: size, pl: pos + entryHdrSize})
		if kind == entryLink {
			pages++
			if pages > maxPages || off+size > uint64(dev.Size()) {
				break
			}
			pos = off
			end = off + size
			continue
		}
		pos = next
	}
	return entries
}
