package journal

import (
	"corundum/internal/crc"
	"corundum/internal/pmem"
)

// Directory slot mirrors.
//
// Each journal owns one cache-line slot in the pool's journal directory.
// The slot's first word is a checksummed mirror of the journal's state:
// the low 32 bits echo the buffer state word's low half (state byte plus
// the epoch's low 24 bits), the high 32 bits are a CRC32 over those bits
// and the slot index. The remaining 56 bytes stay zero.
//
// The mirror is deliberately LAZY: it is written and flushed alongside
// every state transition but rides whichever fence persists the state
// word, so it adds no fences to the commit path. After a torn crash the
// mirror may therefore lag the buffer word — but because the whole
// mirror is one aligned 8-byte word (atomic under the torn-write model),
// it is always either the old or the new value, both checksum-valid.
// Recovery is the authority: it keys off the buffer state word and
// resyncs the mirror.
//
// What the mirror buys is at-rest rot detection for the directory: any
// bit flip in the mirror word breaks its CRC, and any flip in the
// padding breaks the all-zero invariant (padding is never written after
// Format, so it is never at-risk in a crash). Fsck reports either as a
// repairable problem; RepairSlot heals it from the buffer state word.

// slotCRC checksums a mirror word's payload bits, bound to the slot
// index so a slot can never validate against a neighbour's contents.
func slotCRC(index int, lo uint32) uint32 {
	var b [12]byte
	putUint64(b[4:], uint64(index)+1)
	b[0] = byte(lo)
	b[1] = byte(lo >> 8)
	b[2] = byte(lo >> 16)
	b[3] = byte(lo >> 24)
	return crc.Checksum(b[:])
}

// encodeSlotWord packs journal index's directory mirror for the given
// buffer state word.
func encodeSlotWord(index int, stateWord uint64) uint64 {
	lo := uint32(stateWord)
	return uint64(lo) | uint64(slotCRC(index, lo))<<32
}

// SlotOK reports whether journal index's directory slot at dirOff is
// internally consistent: mirror word checksum valid and padding zero.
// It says nothing about freshness — a stale-but-valid mirror is a
// legitimate post-crash state (the mirror is lazy); only damage makes
// this return false.
func SlotOK(dev *pmem.Device, dirOff uint64, index int) bool {
	var slot [slotSize]byte
	dev.LoadBytes(dirOff+uint64(index)*slotSize, slot[:])
	w := leUint64(slot[:])
	if w != encodeSlotWord(index, uint64(uint32(w))) {
		return false
	}
	for _, b := range slot[stateSize:] {
		if b != 0 {
			return false
		}
	}
	return true
}

// slotStale reports whether journal index's directory slot disagrees
// with its buffer state word: a lost lazy-mirror write, a torn mirror
// update, or at-rest damage — all repaired the same way, by rewriting
// the slot from the buffer word.
func slotStale(dev *pmem.Device, dirOff, bufOff uint64, index int) bool {
	return dev.Load8(dirOff+uint64(index)*slotSize) != encodeSlotWord(index, stateWord(dev, bufOff)) ||
		!SlotOK(dev, dirOff, index)
}

// RepairSlot rewrites journal index's directory slot from its buffer
// state word — the authoritative copy — and persists it. Callers must
// hold the journal quiescent (fsck-time repair, recovery, or scrub with
// the journal out of the free list); the write is charged to the
// caller's handle.
func RepairSlot(dev pmem.Handle, dirOff, bufOff, bufCap uint64, index int) {
	slot := dirOff + uint64(index)*slotSize
	var buf [slotSize]byte
	putUint64(buf[:], encodeSlotWord(index, stateWord(dev.Device, bufOff+uint64(index)*bufCap)))
	dev.Write(slot, buf[:])
	dev.Persist(slot, slotSize)
}
