package alloc

import (
	"encoding/binary"
	"fmt"

	"corundum/internal/crc"
	"corundum/internal/pmem"
)

// Checksum slots live at crcOff: slot 0 covers the free-heads region,
// slot 1+i covers map chunk i. Each slot is a u64 holding a CRC32 so
// slots stay word-aligned (the redo log and the torn-write model both
// work in 8-byte words).

func (b *Buddy) headsCRCSlot() uint64             { return b.crcOff }
func (b *Buddy) chunkCRCSlot(chunk uint64) uint64 { return b.crcOff + 8*(1+chunk) }

// ChecksumRegion reports where this arena's checksum slots live, for
// fault-injection harnesses that want to damage a checksum rather than
// the structure it covers.
func (b *Buddy) ChecksumRegion() (off, size uint64) {
	return b.crcOff, 8 * (1 + mapChunks(b.mapBytes))
}

// chunkSpan returns the map byte range [start, end) of chunk i.
func (b *Buddy) chunkSpan(chunk uint64) (uint64, uint64) {
	start := b.mapOff + chunk*mapChunkSize
	end := start + mapChunkSize
	if end > b.mapOff+b.mapBytes {
		end = b.mapOff + b.mapBytes
	}
	return start, end
}

// stageChecksums folds the checksums of every heads/map region the batch
// touches into the batch itself, hashing through staged values, so the
// checksum update commits in the same crash-atomic step as the mutation.
// Must be the last staging call before commit.
func (b *Buddy) stageChecksums(batch *redoBatch) {
	headsEnd := b.headsOff + maxOrders*8
	headsTouched := false
	chunks := b.crcChunks[:0]
	for i := range batch.entries {
		e := &batch.entries[i]
		for _, off := range []uint64{e.off, e.off + uint64(e.width) - 1} {
			switch {
			case off >= b.headsOff && off < headsEnd:
				headsTouched = true
			case off >= b.mapOff && off < b.mapOff+b.mapBytes:
				c := (off - b.mapOff) / mapChunkSize
				seen := false
				for _, have := range chunks {
					if have == c {
						seen = true
						break
					}
				}
				if !seen {
					chunks = append(chunks, c)
				}
			}
		}
	}
	b.crcChunks = chunks
	if headsTouched {
		batch.stage8(b.headsCRCSlot(), uint64(b.crcThrough(batch.entries, b.headsOff, headsEnd)))
	}
	for _, c := range chunks {
		start, end := b.chunkSpan(c)
		batch.stage8(b.chunkCRCSlot(c), uint64(b.crcThrough(batch.entries, start, end)))
	}
}

// crcThrough hashes [start, end) — the free heads or one map chunk — as
// it will read once the staged entries apply: the live bytes, overlaid
// with every entry that covers them (the earliest-staged wins where two
// overlap). With no entries it hashes the live bytes.
func (b *Buddy) crcThrough(staged []redoEntry, start, end uint64) uint32 {
	img := b.crcBuf[:end-start] // the free heads fill it; a map chunk is smaller
	b.dev.LoadBytes(start, img)
	for k := len(staged) - 1; k >= 0; k-- {
		e := staged[k]
		for i := uint64(0); i < uint64(e.width); i++ {
			if off := e.off + i; off >= start && off < end {
				img[off-start] = byte(e.val >> (8 * i))
			}
		}
	}
	return crc.Checksum(img)
}

// writeAllChecksums computes and writes every checksum slot from the live
// image, bypassing the redo log. Format uses it before the arena is
// published; Scrub repair uses it under the arena lock.
func (b *Buddy) writeAllChecksums() {
	var w [8]byte
	put := func(slot uint64, crc uint32) {
		binary.LittleEndian.PutUint64(w[:], uint64(crc))
		b.dev.Write(slot, w[:])
	}
	put(b.headsCRCSlot(), b.crcThrough(nil, b.headsOff, b.headsOff+maxOrders*8))
	for c := uint64(0); c < mapChunks(b.mapBytes); c++ {
		start, end := b.chunkSpan(c)
		put(b.chunkCRCSlot(c), b.crcThrough(nil, start, end))
	}
}

// VerifyChecksums checks the free-heads and order-map checksums of an
// arena image read-only. With a pending redo log it reports nothing: the
// image is mid-operation and replay will land the staged checksums with
// the staged mutations. checksums is nil when every region matches and
// names the first mismatching region otherwise; on a mismatch, structure
// is checkTilingLocked's verdict on the order map, so a flipped map byte
// is told apart from a stale checksum (callers have validated the free
// lists already).
func VerifyChecksums(dev *pmem.Device, metaOff, heapOff, heapSize uint64) (checksums, structure error) {
	b := layout(dev, metaOff, heapOff, heapSize)
	if dev.Load8(b.logOff) != 0 {
		return nil, nil // committed-but-unapplied redo log; replay restores consistency
	}
	if checksums = b.verifyChecksumsLocked(); checksums != nil {
		structure = b.checkTilingLocked()
	}
	return checksums, structure
}

func (b *Buddy) verifyChecksumsLocked() error {
	read := func(slot uint64) uint32 { return uint32(b.dev.Load8(slot)) }
	if got, want := b.crcThrough(nil, b.headsOff, b.headsOff+maxOrders*8), read(b.headsCRCSlot()); got != want {
		return fmt.Errorf("alloc: free-heads checksum mismatch: computed %#x, stored %#x", got, want)
	}
	for c := uint64(0); c < mapChunks(b.mapBytes); c++ {
		start, end := b.chunkSpan(c)
		if got, want := b.crcThrough(nil, start, end), read(b.chunkCRCSlot(c)); got != want {
			return fmt.Errorf("alloc: order-map chunk %d [%#x,%#x) checksum mismatch: computed %#x, stored %#x", c, start, end, got, want)
		}
	}
	return nil
}

// ScrubChecksums verifies this arena's checksums under the arena lock,
// first finishing any pending redo log. checksums is the verification
// error, nil when every region matches. On a mismatch the structure is
// validated too — the free lists (checkConsistencyLocked) and the order
// map's tiling of the heap (checkTilingLocked), which is what covers an
// allocated block's map byte: when both hold, the stale side is the
// checksum, so every slot is rewritten from the live image and structure
// is nil; otherwise structure names the damage and nothing is written.
func (b *Buddy) ScrubChecksums() (checksums, structure error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	replayLog(b.redo, b.logOff)
	if checksums = b.verifyChecksumsLocked(); checksums == nil {
		return nil, nil
	}
	if structure = b.checkConsistencyLocked(); structure == nil {
		structure = b.checkTilingLocked()
	}
	if structure == nil {
		b.writeAllChecksums()
		b.dev.Persist(b.crcOff, 8*(1+mapChunks(b.mapBytes)))
	}
	return checksums, structure
}

// checkTilingLocked checks that the order map tiles the heap: walking
// from the first granule, each byte met is a block head — free
// (mapFreeFlag|order) or allocated (order) — of an order the arena
// serves, aligned to its size and inside the heap, and every other
// granule of the block reads mapInterior. So every granule belongs to
// exactly one block. It reads the whole map, so it runs only once a
// checksum has already mismatched.
func (b *Buddy) checkTilingLocked() error {
	m := make([]byte, b.mapBytes)
	b.dev.LoadBytes(b.mapOff, m)
	for g := uint64(0); g < b.mapBytes; {
		off, code := b.heapOff+g*Granule, m[g]
		if code == mapInterior {
			return fmt.Errorf("alloc: order map: granule %#x belongs to no block", off)
		}
		order := uint(code & mapOrderMask)
		if code&^(mapFreeFlag|mapOrderMask) != 0 || order < MinOrder || order > b.maxOrder {
			return fmt.Errorf("alloc: order map: block %#x has map byte %#x", off, code)
		}
		span := uint64(1) << (order - MinOrder)
		if g%span != 0 || g+span > b.mapBytes {
			return fmt.Errorf("alloc: order map: block %#x of order %d is misaligned or runs past the heap", off, order)
		}
		for i := g + 1; i < g+span; i++ {
			if m[i] != mapInterior {
				return fmt.Errorf("alloc: order map: block %#x of order %d overlaps the block at %#x", off, order, b.heapOff+i*Granule)
			}
		}
		g += span
	}
	return nil
}
