package alloc

import (
	"encoding/binary"

	"corundum/internal/crc"
)

// The slab layer kills the allocator's per-operation fence tax. Without
// it, every Alloc and Free runs a full redo-log cycle — three fences —
// which dominates a transaction whose journal work costs two. The slab
// layer keeps a volatile per-size-class cache of blocks in front of the
// buddy structures, backed by a small persistent ledger:
//
//   - Free of a slab-class block parks it in the cache: one persistent
//     ledger entry (two words, flushed but not fenced) records the
//     parked block; no bitmap, free-list, or redo-log traffic at all.
//   - Alloc of a slab-class block pops the cache: the ledger slot's meta
//     word transitions parked→claimed in ONE atomic 8-byte write
//     (flushed, not fenced), stamped with the consuming journal's index
//     and epoch; the block is handed out with zero fences.
//   - A miss refills the cache in bulk: one redoBatch carves the
//     caller's block AND RefillN spares, staging the spares' ledger
//     entries in the same batch — one three-fence redo cycle amortized
//     over the next RefillN allocations.
//   - An over-full class spills in bulk: one redoBatch coalesces K
//     parked blocks back into the buddy lists and clears their ledger
//     slots together.
//
// Fast-path writes carry no fence of their own; they ride whichever
// fence the caller issues next (a journal's commit fence, in the pool).
// This is the deferred-fence mode the group-commit batcher exploits:
// the batch's single commit fence makes every parked/claimed block of
// the whole batch durable at once.
//
// Why recovery stays exact (the full argument lives in DESIGN.md §6.6).
// The hard case is adversarial cache eviction, which may persist any
// subset of unfenced writes: two independent unfenced words can never
// change atomically, so the design keeps every fast-path state change
// down to ONE 8-byte word with a self-validating CRC.
//
// A parked block's whole lifecycle is then decidable after any crash:
//
//   - Slot empty or CRC-invalid: the block (if any) is still on the
//     buddy structures or still allocated — the slot says nothing, and
//     nothing was depending on it.
//   - Slot parked: the block was freed by a COMMITTED transaction (the
//     pool only calls Free after the commit point) and belongs to the
//     free space; open-time replay returns it to the buddy lists.
//     If the park write was evicted-lost instead, the block still reads
//     allocated and journal recovery re-drives the committed free
//     through its drop log, gated on IsAllocated — exactly once.
//   - Slot claimed(journal j, epoch e): a transaction popped the block.
//     Whether it owns it is exactly "did (j,e) commit?", and that is
//     decided by j's durable state word, which every commit must fence:
//     the pool resolves claims after journal recovery (ResolveClaims)
//     and frees the block only when (j,e) provably never committed.
//     The claim itself was flushed before any commit fence of (j,e), so
//     a durable commit record implies a durable claim — the block can
//     never be freed out from under a committed owner, and a lost claim
//     with a durable commit just means the slot reads parked and the
//     map byte plus journal recovery sort it out as above. No leak, no
//     double-alloc, under plain crashes and eviction alike.
//
// The ledger is transient, self-validating state, like the redo log:
// every meta word carries a CRC over (offset, order[, journal, epoch]),
// replay discards entries that fail it or disagree with the order map,
// and the region is zeroed once drained. At-rest bit flips there are
// therefore masked, never silent.
const (
	// slabMaxOrder bounds which size classes the cache serves: blocks up
	// to 4 KiB. Larger blocks (journal continuation pages at 64 KiB) are
	// rare enough that the redo cycle is noise, and caching them would
	// hold large spans hostage.
	slabMaxOrder = 12
	// slabClasses is the number of cached size classes.
	slabClasses = slabMaxOrder - MinOrder + 1
	// slabLedgerSlots is the ledger capacity per arena; it bounds how
	// many blocks the cache can hold across all classes.
	slabLedgerSlots = 256
	// slabSlotSize is the on-media footprint of one ledger slot:
	// [off u64][meta u64], 0 meta = empty.
	slabSlotSize = 16
	// slabLedgerSize is the ledger's total media footprint.
	slabLedgerSize = slabLedgerSlots * slabSlotSize
	// slabClaimedFlag marks a meta word as a claim (set in the order
	// byte; orders stop at slabMaxOrder, far below the flag bit).
	slabClaimedFlag = 0x40
)

// Default slab tuning. SetSlabParams overrides per arena.
const (
	defaultSlabRefill = 16 // spare blocks stocked per refill batch
	defaultSlabCap    = 64 // parked blocks per class before a spill
)

// slabBlock is one parked or claimed block: its heap offset and the
// ledger slot recording it.
type slabBlock struct {
	off  uint64
	slot int
}

// pendingClaim is a claim found on media at open time, awaiting
// resolution against its journal's durable state word.
type pendingClaim struct {
	off     uint64
	order   uint
	slot    int
	journal int
	epoch16 uint16
}

// slabCache is the volatile half of the slab layer (guarded by Buddy.mu).
type slabCache struct {
	enabled bool
	refill  int
	cap     int

	classes   [slabClasses][]slabBlock
	cached    map[uint64]uint // off -> order, the double-free guard
	freeSlots []int           // ledger slots not currently holding an entry
	bytes     uint64          // total parked bytes
	claims    []slabBlock     // blocks claimed by the live transaction
	stocked   []slabBlock     // a refill's spares until its batch commits

	pendingClaims []pendingClaim // crash-surviving claims awaiting ResolveClaims

	stats SlabStats
}

// SlabStats counts what the slab layer has done since the arena opened.
type SlabStats struct {
	Hits    uint64 // allocations served from the cache (zero redo fences)
	Misses  uint64 // allocations that fell through to a refill batch
	Frees   uint64 // frees parked in the cache (zero redo fences)
	Refills uint64 // bulk refill batches
	Spills  uint64 // bulk spill batches
	Stocked uint64 // spare blocks carved by refills
	Spilled uint64 // parked blocks returned to the buddy lists by spills
	Cached  uint64 // blocks currently parked
	Bytes   uint64 // bytes currently parked
}

// slabOrderIndex maps an order to its class index, or -1 when the order
// is outside the cached range.
func slabOrderIndex(order uint) int {
	if order < MinOrder || order > slabMaxOrder {
		return -1
	}
	return int(order - MinOrder)
}

func (b *Buddy) initSlab() {
	b.slab.enabled = true
	b.slab.refill = defaultSlabRefill
	b.slab.cap = defaultSlabCap
	b.slab.cached = make(map[uint64]uint, defaultSlabCap)
	b.slab.freeSlots = b.slab.freeSlots[:0]
	for i := slabLedgerSlots - 1; i >= 0; i-- {
		b.slab.freeSlots = append(b.slab.freeSlots, i)
	}
}

// SetSlabParams tunes the slab cache: refill spares per miss, parked
// blocks per class before a spill. refill < 1 disables the cache
// entirely (every operation runs a full redo cycle, the pre-slab
// behaviour, kept for ablation benchmarks); parked blocks are spilled
// back first so no state is stranded.
func (b *Buddy) SetSlabParams(refill, capPerClass int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if refill < 1 {
		b.drainSlabLocked()
		b.slab.enabled = false
		return
	}
	if capPerClass < 1 {
		capPerClass = 1
	}
	if capPerClass > slabLedgerSlots/slabClasses {
		capPerClass = slabLedgerSlots / slabClasses
	}
	if refill > capPerClass {
		refill = capPerClass
	}
	b.slab.enabled = true
	b.slab.refill = refill
	b.slab.cap = capPerClass
}

// SlabStats snapshots the arena's slab counters.
func (b *Buddy) SlabStats() SlabStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.slab.stats
	st.Cached = uint64(len(b.slab.cached))
	st.Bytes = b.slab.bytes
	return st
}

func (b *Buddy) slabSlotOff(slot int) uint64 {
	return b.ledgerOff + uint64(slot)*slabSlotSize
}

// slabMeta packs a parked slot's meta word: the order in the low byte, a
// CRC over (off, order) in the high half. The CRC makes a torn two-word
// entry write self-invalidating and turns at-rest bit flips in the
// ledger into detected-and-discarded entries.
func slabMeta(off uint64, order uint) uint64 {
	var buf [9]byte
	binary.LittleEndian.PutUint64(buf[:], off)
	buf[8] = byte(order)
	return uint64(order) | uint64(crc.Checksum(buf[:]))<<32
}

// claimMeta packs a claimed slot's meta word: order+flag, the claiming
// journal's index, the low 16 bits of its transaction epoch, and a CRC
// binding all of it to the slot's offset word. The whole state change
// from parked to claimed is this one atomic 8-byte word, which is what
// keeps the protocol sound under adversarial eviction.
func claimMeta(off uint64, order uint, journal int, epoch16 uint16) uint64 {
	b0 := byte(order) | slabClaimedFlag
	var buf [12]byte
	binary.LittleEndian.PutUint64(buf[:], off)
	buf[8] = b0
	buf[9] = byte(journal)
	binary.LittleEndian.PutUint16(buf[10:], epoch16)
	return uint64(b0) | uint64(byte(journal))<<8 | uint64(epoch16)<<16 |
		uint64(crc.Checksum(buf[:]))<<32
}

// writeLedger persists (flush, no fence) a parked block's ledger entry.
// The entry rides the caller's next fence, exactly like the free-list
// words a buddy free would have written.
func (b *Buddy) writeLedger(slot int, off uint64, order uint) {
	var w [slabSlotSize]byte
	binary.LittleEndian.PutUint64(w[0:], off)
	binary.LittleEndian.PutUint64(w[8:], slabMeta(off, order))
	pos := b.slabSlotOff(slot)
	b.redo.Write(pos, w[:])
	b.redo.Flush(pos, slabSlotSize)
}

// AllocClaim is the deferred-fence allocation fast path: it serves size
// bytes from the slab cache with zero fences, or reports false so the
// caller can run the full crash-atomic AllocEx. On success the ledger
// slot records which transaction (journal, epoch) claimed the block;
// the claim is flushed but unfenced and rides the transaction's commit
// fence. The journal must call RetireClaims once the transaction's
// outcome is durably fenced, and a crash before that is resolved by
// ResolveClaims at the next open.
func (b *Buddy) AllocClaim(size uint64, payload []byte, journal int, epoch uint64) (uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.slab.enabled || journal < 0 || journal > 0xFF {
		return 0, false
	}
	order := orderFor(size)
	ci := slabOrderIndex(order)
	if ci < 0 || len(b.slab.classes[ci]) == 0 {
		return 0, false
	}
	replayLog(b.redo, b.logOff) // finish any interrupted prior commit
	class := b.slab.classes[ci]
	blk := class[len(class)-1]
	b.slab.classes[ci] = class[:len(class)-1]
	delete(b.slab.cached, blk.off)
	b.slab.bytes -= uint64(1) << order

	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], claimMeta(blk.off, order, journal, uint16(epoch)))
	pos := b.slabSlotOff(blk.slot) + 8
	b.redo.Write(pos, w[:])
	b.redo.Flush(pos, 8)

	b.slab.claims = append(b.slab.claims, blk)
	if payload != nil {
		// The block is off every free list (its bytes are not live links),
		// so the payload lands directly; flushed, unfenced, it becomes
		// durable with the claim at the caller's next fence.
		b.dev.StoreBytes(blk.off, payload)
		b.dev.Flush(blk.off, uint64(len(payload)))
	}
	b.slab.stats.Hits++
	b.inUse += uint64(1) << order
	return blk.off, true
}

// RetireClaims recycles the ledger slots of the live transaction's
// claims. The caller guarantees the transaction's outcome (commit or
// abort) is already durably fenced, so the zeroing — flushed, unfenced —
// can never reach the media ahead of the outcome it depends on.
func (b *Buddy) RetireClaims() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.slab.claims) == 0 {
		return
	}
	var zero [8]byte
	for _, blk := range b.slab.claims {
		pos := b.slabSlotOff(blk.slot) + 8
		b.redo.Write(pos, zero[:])
		b.redo.Flush(pos, 8)
		b.slab.freeSlots = append(b.slab.freeSlots, blk.slot)
	}
	b.slab.claims = b.slab.claims[:0]
}

// ResolveClaims settles the claims a crash left in the ledger. The pool
// calls it after journal recovery with a verdict function: txAborted
// must report true only when the claiming transaction (journal index,
// low 16 epoch bits) provably never committed — then the block is freed
// back to the buddy lists. Every resolved slot is cleared in the same
// crash-atomic batch as the frees it implies, so a crash mid-resolve
// just re-resolves the remainder with the same verdicts.
func (b *Buddy) ResolveClaims(txAborted func(journal int, epoch16 uint16) bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.slab.pendingClaims) == 0 {
		return
	}
	replayLog(b.redo, b.logOff)
	batch := b.batch
	batch.reset()
	var freed uint64
	for _, c := range b.slab.pendingClaims {
		if len(batch.entries) >= logCapacity-batchHeadroom {
			b.stageChecksums(batch)
			batch.commit()
			batch.reset()
		}
		free := txAborted != nil && txAborted(c.journal, c.epoch16)
		// Journal recovery ran in between: a committed drop may have parked
		// or buddy-freed this block already, so re-check before freeing.
		_, parked := b.slab.cached[c.off]
		if free && !parked && batch.read1(b.granuleMapOff(c.off)) == byte(c.order) {
			b.freeInBatch(batch, c.off, c.order)
			freed += uint64(1) << c.order
		}
		batch.stage8(b.slabSlotOff(c.slot)+8, 0)
	}
	if len(batch.entries) > 0 {
		b.stageChecksums(batch)
		batch.commit()
	}
	for _, c := range b.slab.pendingClaims {
		b.slab.freeSlots = append(b.slab.freeSlots, c.slot)
	}
	b.slab.pendingClaims = nil
	b.inUse -= freed
}

// PendingClaimCount reports how many crash-surviving claims await
// ResolveClaims (diagnostics and tests).
func (b *Buddy) PendingClaimCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.slab.pendingClaims)
}

// slabFree parks a freed block in the cache, or reports false to send it
// down the buddy path. Zero fences on success; a spill batch runs when
// the class is over capacity.
func (b *Buddy) slabFree(off uint64, order uint) bool {
	if !b.slab.enabled {
		return false
	}
	ci := slabOrderIndex(order)
	if ci < 0 || len(b.slab.freeSlots) == 0 {
		return false
	}
	slot := b.slab.freeSlots[len(b.slab.freeSlots)-1]
	b.slab.freeSlots = b.slab.freeSlots[:len(b.slab.freeSlots)-1]
	b.writeLedger(slot, off, order)
	b.slab.classes[ci] = append(b.slab.classes[ci], slabBlock{off: off, slot: slot})
	b.slab.cached[off] = order
	b.slab.bytes += uint64(1) << order
	b.slab.stats.Frees++
	if len(b.slab.classes[ci]) > b.slab.cap {
		b.spillClass(ci)
	}
	return true
}

// batchHeadroom is how many redo entries a bulk batch leaves unused, so
// one more free (worst-case coalescing up every order plus the map-chunk
// checksums it dirties) can always be staged.
const batchHeadroom = 128

// spillClass returns roughly half of an over-full class to the buddy
// lists in one redo batch: the frees coalesce through staged state and
// the ledger clears land in the same crash-atomic step.
func (b *Buddy) spillClass(ci int) {
	order := uint(ci + MinOrder)
	batch := b.batch
	batch.reset()
	n := len(b.slab.classes[ci]) / 2
	if n < 1 {
		n = 1
	}
	spilled := 0
	for i := 0; i < n && len(batch.entries) < logCapacity-batchHeadroom; i++ {
		class := b.slab.classes[ci]
		blk := class[len(class)-1]
		b.slab.classes[ci] = class[:len(class)-1]
		delete(b.slab.cached, blk.off)
		b.slab.bytes -= uint64(1) << order
		b.freeInBatch(batch, blk.off, order)
		batch.stage8(b.slabSlotOff(blk.slot)+8, 0) // retire the ledger entry
		b.slab.freeSlots = append(b.slab.freeSlots, blk.slot)
		spilled++
	}
	b.stageChecksums(batch)
	batch.commit()
	b.slab.stats.Spills++
	b.slab.stats.Spilled += uint64(spilled)
}

// slabRefillInBatch stocks the cache with spares for the class serving
// size, staging their carve-out and ledger entries into the caller's
// already-open batch. Called on an allocation miss: the caller's own
// block and the spares commit in one redo cycle.
func (b *Buddy) slabRefillInBatch(batch *redoBatch, size uint64) []slabBlock {
	if !b.slab.enabled {
		return nil
	}
	order := orderFor(size)
	ci := slabOrderIndex(order)
	if ci < 0 {
		return nil
	}
	b.slab.stats.Misses++
	stocked := b.slab.stocked[:0]
	room := b.slab.cap - len(b.slab.classes[ci])
	for len(stocked) < b.slab.refill && len(stocked) < room &&
		len(b.slab.freeSlots) > len(stocked) &&
		len(batch.entries) < logCapacity-batchHeadroom {
		off, err := b.allocInBatch(batch, uint64(1)<<order)
		if err != nil {
			break // heap exhausted: the caller's block already succeeded
		}
		slot := b.slab.freeSlots[len(b.slab.freeSlots)-1-len(stocked)]
		batch.stage8(b.slabSlotOff(slot), off)
		batch.stage8(b.slabSlotOff(slot)+8, slabMeta(off, order))
		stocked = append(stocked, slabBlock{off: off, slot: slot})
	}
	b.slab.stocked = stocked
	return stocked
}

// adoptStocked publishes refill spares into the volatile cache once
// their batch has committed.
func (b *Buddy) adoptStocked(stocked []slabBlock, order uint) {
	if len(stocked) == 0 {
		return
	}
	ci := slabOrderIndex(order)
	b.slab.freeSlots = b.slab.freeSlots[:len(b.slab.freeSlots)-len(stocked)]
	for _, blk := range stocked {
		b.slab.classes[ci] = append(b.slab.classes[ci], blk)
		b.slab.cached[blk.off] = order
		b.slab.bytes += uint64(1) << order
	}
	b.slab.stats.Refills++
	b.slab.stats.Stocked += uint64(len(stocked))
}

// replayLedger drains the persistent ledger at open: every valid parked
// entry is a block a crashed incarnation had freed, and it goes back to
// the buddy free lists in bulk batches; claimed entries are collected
// for ResolveClaims (their slots stay on media until resolved); invalid
// entries (torn writes, bit rot, stale slots disagreeing with the order
// map) are discarded. Drained slots are zeroed, so the steady state
// starts empty. Runs before inUse accounting, under the open-time
// lock-free window.
func (b *Buddy) replayLedger() {
	type parked struct {
		off   uint64
		order uint
	}
	var blocks []parked
	seen := make(map[uint64]struct{})
	dirty := false
	for i := 0; i < slabLedgerSlots; i++ {
		if b.dev.Load8(b.slabSlotOff(i)+8) != 0 {
			dirty = true
			break
		}
	}
	if !dirty {
		return
	}
	// Draining pushes blocks onto the free lists, which follows head and
	// link pointers; on a media-damaged image those may be wild. Walk the
	// structure read-only first (CheckConsistency never faults) and leave
	// the ledger untouched if it is broken — repair runs next, and the
	// post-repair reopen drains the still-CRC-gated entries.
	if err := b.checkConsistencyLocked(); err != nil {
		return
	}
	decode := func(i int) (off uint64, order uint, meta uint64, ok bool) {
		pos := b.slabSlotOff(i)
		meta = b.dev.Load8(pos + 8)
		if meta == 0 {
			return 0, 0, 0, false
		}
		off = b.dev.Load8(pos)
		order = uint(meta&0xFF) &^ slabClaimedFlag
		ok = slabOrderIndex(order) >= 0 &&
			off >= b.heapOff && off+(uint64(1)<<order) <= b.heapOff+b.heapSize &&
			(off-b.heapOff)%(uint64(1)<<order) == 0 &&
			loadByte(b.dev, b.granuleMapOff(off)) == byte(order)
		return off, order, meta, ok
	}
	// Parked entries first: when a parked and a claimed entry name the same
	// block, the park is the later, authoritative fact (an in-process abort
	// re-parked the claimed block and only then durably retired to idle —
	// the idle word alone cannot distinguish that abort from a commit, the
	// park can). A stale park surviving next to a newer claim is impossible:
	// the claim overwrites its own slot's meta word in place.
	for i := 0; i < slabLedgerSlots; i++ {
		off, order, meta, ok := decode(i)
		if !ok || meta&slabClaimedFlag != 0 || meta != slabMeta(off, order) {
			continue
		}
		if _, dup := seen[off]; !dup {
			seen[off] = struct{}{}
			blocks = append(blocks, parked{off: off, order: order})
		}
	}
	claimSlots := make(map[int]bool)
	for i := 0; i < slabLedgerSlots; i++ {
		off, order, meta, ok := decode(i)
		if !ok || meta&slabClaimedFlag == 0 {
			continue
		}
		journal := int(meta >> 8 & 0xFF)
		epoch16 := uint16(meta >> 16)
		if meta != claimMeta(off, order, journal, epoch16) {
			continue
		}
		if _, dup := seen[off]; !dup {
			seen[off] = struct{}{}
			claimSlots[i] = true
			b.slab.pendingClaims = append(b.slab.pendingClaims, pendingClaim{
				off: off, order: order, slot: i, journal: journal, epoch16: epoch16,
			})
		}
	}
	// Free the parked blocks back in bulk: a few redo cycles at open time
	// instead of one per block. Each batch is crash-atomic, so a crash
	// mid-drain re-drains the rest at the next open.
	batch := b.batch
	batch.reset()
	for _, p := range blocks {
		if len(batch.entries) >= logCapacity-batchHeadroom {
			b.stageChecksums(batch)
			batch.commit()
			batch.reset()
		}
		if batch.read1(b.granuleMapOff(p.off)) != byte(p.order) {
			continue // coalesced away by an earlier free in this batch run
		}
		b.freeInBatch(batch, p.off, p.order)
	}
	if len(batch.entries) > 0 {
		b.stageChecksums(batch)
		batch.commit()
	}
	// Zero every slot except the claims awaiting resolution, and keep
	// claimed slots out of the volatile free-slot pool.
	var zero [slabSlotSize]byte
	for i := 0; i < slabLedgerSlots; i++ {
		if !claimSlots[i] {
			b.dev.Write(b.slabSlotOff(i), zero[:])
		}
	}
	b.dev.Persist(b.ledgerOff, slabLedgerSize)
	if len(claimSlots) > 0 {
		b.slab.freeSlots = b.slab.freeSlots[:0]
		for i := slabLedgerSlots - 1; i >= 0; i-- {
			if !claimSlots[i] {
				b.slab.freeSlots = append(b.slab.freeSlots, i)
			}
		}
	}
}

// drainSlabLocked spills every parked block back to the buddy lists and
// zeroes the ledger (SetSlabParams-disable and test teardown).
func (b *Buddy) drainSlabLocked() {
	if !b.slab.enabled {
		return
	}
	batch := b.batch
	dirty := false
	batch.reset()
	for ci := range b.slab.classes {
		order := uint(ci + MinOrder)
		for _, blk := range b.slab.classes[ci] {
			if len(batch.entries) >= logCapacity-batchHeadroom {
				b.stageChecksums(batch)
				batch.commit()
				batch.reset()
			}
			b.freeInBatch(batch, blk.off, order)
			batch.stage8(b.slabSlotOff(blk.slot)+8, 0)
			b.slab.freeSlots = append(b.slab.freeSlots, blk.slot)
			dirty = true
		}
		b.slab.classes[ci] = b.slab.classes[ci][:0]
	}
	if len(batch.entries) > 0 {
		b.stageChecksums(batch)
		batch.commit()
	}
	if dirty {
		clear(b.slab.cached)
		b.slab.bytes = 0
	}
}

// LedgerRange reports where this arena's slab ledger lives. Fault
// campaigns may flip bits there: entries are CRC-gated and replay
// discards what fails, so damage is masked, never silent.
func (b *Buddy) LedgerRange() (off, size uint64) {
	return b.ledgerOff, slabLedgerSize
}
