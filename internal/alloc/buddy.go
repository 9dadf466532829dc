// Package alloc implements the crash-atomic buddy allocator each Corundum
// pool uses for its persistent heap (Knowlton's buddy system, as cited by
// the paper). Small allocations split larger free blocks; frees coalesce
// adjacent buddies back into larger ones. Every state change goes through a
// redo log so that a crash at any instruction boundary leaves the allocator
// either before or after the whole operation.
package alloc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"corundum/internal/pmem"
)

// MinOrder is the log2 of the smallest block (one cache line). Requests
// smaller than this are rounded up, so distinct objects never share a line.
const MinOrder = 6

// Granule is the smallest block size in bytes.
const Granule = 1 << MinOrder

const maxOrders = 48 // supports heaps up to 2^47 bytes; far beyond need

// Byte codes in the order map, one byte per granule of heap.
const (
	mapInterior  = 0xFF // not the head of any block
	mapFreeFlag  = 0x80 // OR'd with the order for a free block head
	mapOrderMask = 0x3F
)

// Allocation failures and misuse are reported as errors, never corruption.
var (
	ErrOutOfMemory = errors.New("alloc: out of persistent memory")
	ErrBadFree     = errors.New("alloc: free of unallocated or mismatched block")
	ErrTooLarge    = errors.New("alloc: request exceeds heap size")
)

// Buddy is one allocator arena. A pool shards its heap into several arenas
// (one per journal) so concurrent transactions allocate without contention,
// mirroring the paper's per-thread allocators.
//
// Media layout, starting at metaOff:
//
//	redo log      logAreaSize bytes
//	free heads    maxOrders * 8 bytes   (offset of first free block per order)
//	order map     heapSize/Granule bytes
//	checksums     8 * (1 + ceil(map/mapChunkSize)) bytes
//	slab ledger   slabLedgerSize bytes  (parked-block entries, see slab.go)
//
// The checksum area holds one CRC32 (in a u64 slot) over the free-heads
// region, then one per mapChunkSize-byte chunk of the order map. Every
// Alloc/Free stages the checksums of the regions it touches into the same
// redo batch as the mutations themselves, so the checksums are exact at
// every crash point once the log replays — a scrub pass can then tell a
// legitimate crash image from at-rest media corruption.
//
// Free blocks form doubly-linked lists threaded through their own storage:
// the first 16 bytes of a free block hold next and prev offsets (0 = none).
type Buddy struct {
	mu        sync.Mutex
	dev       *pmem.Device // payload and format stores: user-data traffic
	redo      pmem.Handle  // redo log, apply, and slab ledger: alloc-redo traffic
	logOff    uint64
	headsOff  uint64
	mapOff    uint64
	crcOff    uint64
	mapBytes  uint64
	ledgerOff uint64
	heapOff   uint64
	heapSize  uint64
	maxOrder  uint

	inUse     uint64              // volatile accounting of allocated bytes
	batch     *redoBatch          // reusable staging buffer (guarded by mu)
	slab      slabCache           // per-size-class free cache (guarded by mu)
	crcBuf    [maxOrders * 8]byte // crcThrough's image of a region (guarded by mu)
	crcChunks []uint64            // stageChecksums' touched map chunks (guarded by mu)
}

// mapChunkSize is the order-map granularity of checksum protection: one
// CRC per 256 map bytes (16 KiB of heap), small enough that an operation
// re-hashes only a few chunks.
const mapChunkSize = 256

func mapChunks(mapBytes uint64) uint64 { return (mapBytes + mapChunkSize - 1) / mapChunkSize }

// align8 rounds n up to the device's atomic word size. The order map is
// byte-granular, so everything laid out after it must be re-aligned: the
// checksum words and ledger slots rely on aligned-8-byte-store atomicity,
// and a word that straddles two device words can tear under eviction.
func align8(n uint64) uint64 { return (n + 7) &^ uint64(7) }

// MetaSize returns the metadata footprint an arena with the given heap size
// needs, rounded to a cache line.
func MetaSize(heapSize uint64) uint64 {
	mapBytes := heapSize / Granule
	crcEnd := align8(uint64(logAreaSize)+maxOrders*8+mapBytes) + 8*(1+mapChunks(mapBytes))
	n := align8(crcEnd) + slabLedgerSize
	return (n + pmem.CacheLineSize - 1) &^ uint64(pmem.CacheLineSize-1)
}

// LogAreaSize reports the media footprint of an arena's redo-log area,
// which leads its metadata region. Fault campaigns use it to scope
// at-rest corruption models to long-lived structures.
func LogAreaSize() uint64 { return logAreaSize }

// FreeHeadsRange reports where the free-list head array of an arena with
// metadata at metaOff lives. Fault-injection harnesses target it when they
// need structural damage a checksum rewrite cannot absorb (the redo-log
// area that precedes it may hold stale, ignored bytes at rest).
func FreeHeadsRange(metaOff uint64) (off, size uint64) {
	return metaOff + logAreaSize, maxOrders * 8
}

func layout(dev *pmem.Device, metaOff, heapOff, heapSize uint64) *Buddy {
	if heapSize == 0 || heapSize%Granule != 0 {
		panic(fmt.Sprintf("alloc: heap size %d must be a positive multiple of %d", heapSize, Granule))
	}
	if heapOff%Granule != 0 {
		panic("alloc: heap offset must be granule-aligned")
	}
	redo := dev.In(pmem.ScopeAllocRedo)
	b := &Buddy{
		batch:    newBatch(redo, metaOff),
		dev:      dev,
		redo:     redo,
		logOff:   metaOff,
		headsOff: metaOff + logAreaSize,
		mapOff:   metaOff + logAreaSize + maxOrders*8,
		mapBytes: heapSize / Granule,
		heapOff:  heapOff,
		heapSize: heapSize,
		maxOrder: uint(bits.Len64(heapSize) - 1),
	}
	b.crcOff = align8(b.mapOff + b.mapBytes)
	b.ledgerOff = align8(b.crcOff + 8*(1+mapChunks(b.mapBytes)))
	if b.crcOff%8 != 0 || b.ledgerOff%8 != 0 {
		// Only possible if metaOff itself is misaligned: the checksum and
		// ledger words depend on aligned-8-byte-store atomicity.
		panic("alloc: metadata region must be 8-byte aligned")
	}
	b.initSlab()
	return b
}

// Format initializes a fresh arena over [heapOff, heapOff+heapSize) with
// metadata at metaOff, and persists it.
func Format(dev *pmem.Device, metaOff, heapOff, heapSize uint64) *Buddy {
	b := layout(dev, metaOff, heapOff, heapSize)

	// Clear log and heads, and the slab ledger at the region's far end.
	zero := make([]byte, logAreaSize+maxOrders*8)
	dev.Write(b.logOff, zero)
	dev.Write(b.ledgerOff, make([]byte, slabLedgerSize))

	// All interior until blocks are carved.
	om := make([]byte, heapSize/Granule)
	for i := range om {
		om[i] = mapInterior
	}
	dev.Write(b.mapOff, om)

	// Carve the heap greedily into maximal aligned power-of-two blocks and
	// push each onto its free list. Direct writes are fine here: Format runs
	// before the arena is published, and ends by persisting what it wrote.
	rel := uint64(0)
	for rel < heapSize {
		order := uint(bits.TrailingZeros64(rel | (1 << 62)))
		for (uint64(1) << order) > heapSize-rel {
			order--
		}
		if order > b.maxOrder {
			order = b.maxOrder
		}
		b.rawPush(order, b.heapOff+rel)
		rel += uint64(1) << order
	}
	b.writeAllChecksums()
	// Format wrote the metadata region and, in the heap, only each free
	// block's link head: flush those lines, not the whole heap, then fence
	// once.
	dev.Flush(b.logOff, MetaSize(heapSize))
	for o := uint(MinOrder); o <= b.maxOrder; o++ {
		for off := dev.Load8(b.headsOff + uint64(o)*8); off != 0; off = dev.Load8(off) {
			dev.Flush(off, 16)
		}
	}
	dev.Fence()
	return b
}

// Open attaches to an existing arena, finishing any redo log a crash left
// committed but unapplied, then draining the slab ledger: blocks a
// crashed incarnation had parked in its cache go back to the free lists.
func Open(dev *pmem.Device, metaOff, heapOff, heapSize uint64) *Buddy {
	b := layout(dev, metaOff, heapOff, heapSize)
	replayLog(b.redo, b.logOff)
	b.replayLedger()
	b.inUse = b.heapSize - b.freeBytesLocked()
	return b
}

// Validate inspects an arena image read-only (no redo replay, no writes):
// it reports structural problems exactly like CheckConsistency but is safe
// to run on untrusted or crashed images.
func Validate(dev *pmem.Device, metaOff, heapOff, heapSize uint64) error {
	b := layout(dev, metaOff, heapOff, heapSize)
	return b.CheckConsistency()
}

// rawPush links a free block during Format, bypassing the redo log.
func (b *Buddy) rawPush(order uint, off uint64) {
	headOff := b.headsOff + uint64(order)*8
	oldHead := b.dev.Load8(headOff)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], oldHead)
	b.dev.Write(off, w[:]) // next
	binary.LittleEndian.PutUint64(w[:], 0)
	b.dev.Write(off+8, w[:]) // prev
	if oldHead != 0 {
		binary.LittleEndian.PutUint64(w[:], off)
		b.dev.Write(oldHead+8, w[:])
	}
	binary.LittleEndian.PutUint64(w[:], off)
	b.dev.Write(headOff, w[:])
	b.dev.StoreBytes(b.granuleMapOff(off), []byte{mapFreeFlag | byte(order)})
}

func (b *Buddy) granuleMapOff(off uint64) uint64 {
	return b.mapOff + (off-b.heapOff)/Granule
}

// orderFor returns the buddy order serving a request of size bytes.
func orderFor(size uint64) uint {
	if size == 0 {
		size = 1
	}
	o := uint(bits.Len64(size - 1))
	if o < MinOrder {
		o = MinOrder
	}
	return o
}

// BlockSize reports the actual block size a request of size bytes occupies.
func BlockSize(size uint64) uint64 { return 1 << orderFor(size) }

// Update is an extra word or byte write a caller can fold into an
// allocation's crash-atomic redo batch (the journal uses this to validate
// its alloc-log entry in the same atomic step as the allocation itself).
type Update struct {
	Off   uint64
	Val   uint64
	Width uint8 // 1 or 8
}

// Alloc carves a block of at least size bytes and returns its device
// offset. The operation is crash-atomic: after a crash the block is either
// fully allocated or still free.
func (b *Buddy) Alloc(size uint64) (uint64, error) {
	return b.AllocEx(size, nil, nil)
}

// AtomicInit allocates a block and fills it with data in one crash-atomic
// step (the paper's failure-atomic instantiation): the payload is persisted
// into the still-free block first, then the allocation commits, so a crash
// can never expose an allocated-but-uninitialized object.
func (b *Buddy) AtomicInit(data []byte) (uint64, error) {
	return b.AllocEx(uint64(len(data)), data, nil)
}

// AllocEx is the general allocation primitive. If payload is non-nil it is
// persisted into the block before the allocation commits. If extra is
// non-nil it is called with the chosen block offset and may return
// additional updates to fold into the same crash-atomic batch; either the
// allocation and all extra updates happen, or none do.
func (b *Buddy) AllocEx(size uint64, payload []byte, extra func(off uint64) []Update) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	replayLog(b.redo, b.logOff) // finish any interrupted prior commit
	// Parked blocks are NOT served here: handing one out without a fence is
	// only sound when a journal's durable state word can arbitrate ownership
	// after a crash, which is exactly what AllocClaim implements. AllocEx
	// keeps full crash-atomic semantics for every other caller, and still
	// pays the cache forward by stocking spares into its own redo cycle.
	batch := b.batch
	batch.reset()
	off, err := b.allocSlowInBatch(batch, size)
	if err != nil {
		return 0, err
	}
	// While the redo cycle is being paid anyway, stock the cache with
	// spares for this class: the batch's three fences amortize over the
	// next refill-many allocations.
	stocked := b.slabRefillInBatch(batch, size)
	if payload != nil {
		// The block's first 16 bytes still hold its free-list links on the
		// media, and the links must survive if this batch never commits (a
		// crash would otherwise leave a free block with payload bytes where
		// recovery expects pointers). Route those bytes through the redo
		// batch so they land exactly when the allocation does; the rest of
		// the payload lands in block interior, which free blocks don't use.
		var head [16]byte
		copy(head[:], payload)
		batch.stage8(off, binary.LittleEndian.Uint64(head[0:8]))
		batch.stage8(off+8, binary.LittleEndian.Uint64(head[8:16]))
		if len(payload) > 16 {
			rest := payload[16:]
			b.dev.StoreBytes(off+16, rest)
			b.dev.Persist(off+16, uint64(len(rest)))
		}
	}
	if extra != nil {
		for _, u := range extra(off) {
			batch.stage(u.Off, u.Val, u.Width)
		}
	}
	b.stageChecksums(batch)
	batch.commit()
	b.adoptStocked(stocked, orderFor(size))
	b.inUse += BlockSize(size)
	return off, nil
}

// IsAllocated reports whether off is currently the head of an allocated
// block of the order serving size. Recovery uses it to apply drop logs
// idempotently.
func (b *Buddy) IsAllocated(off, size uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < b.heapOff || off >= b.heapOff+b.heapSize {
		return false
	}
	if _, parked := b.slab.cached[off]; parked {
		// Parked blocks keep their allocated map byte but are logically
		// free; reporting them allocated would let an idempotent recovery
		// replay free them a second time.
		return false
	}
	return loadByte(b.dev, b.granuleMapOff(off)) == byte(orderFor(size))
}

// Owns reports whether off falls inside this arena's heap.
func (b *Buddy) Owns(off uint64) bool {
	return off >= b.heapOff && off < b.heapOff+b.heapSize
}

// allocSlowInBatch is allocInBatch plus the memory-pressure fallback:
// when the buddy lists are exhausted but the slab cache holds parked
// blocks, those blocks are still free space and must remain reachable.
// A parked block of the exact class is consumed through the batch (its
// map byte already reads allocated; only its ledger slot needs clearing,
// staged crash-atomically with the rest); otherwise the whole cache is
// spilled so smaller parked blocks can coalesce upward, and the search
// retries.
func (b *Buddy) allocSlowInBatch(batch *redoBatch, size uint64) (uint64, error) {
	off, err := b.allocInBatch(batch, size)
	if err == nil || !errors.Is(err, ErrOutOfMemory) || b.slab.bytes == 0 {
		return off, err
	}
	if ci := slabOrderIndex(orderFor(size)); ci >= 0 && len(b.slab.classes[ci]) > 0 {
		class := b.slab.classes[ci]
		blk := class[len(class)-1]
		b.slab.classes[ci] = class[:len(class)-1]
		delete(b.slab.cached, blk.off)
		b.slab.bytes -= BlockSize(size)
		batch.stage8(b.slabSlotOff(blk.slot)+8, 0)
		b.slab.freeSlots = append(b.slab.freeSlots, blk.slot)
		return blk.off, nil
	}
	b.drainSlabLocked()
	batch.reset()
	return b.allocInBatch(batch, size)
}

func (b *Buddy) allocInBatch(batch *redoBatch, size uint64) (uint64, error) {
	want := orderFor(size)
	if want > b.maxOrder {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
	}
	// Find the smallest order with a free block.
	from := want
	for from <= b.maxOrder && batch.read8(b.headsOff+uint64(from)*8) == 0 {
		from++
	}
	if from > b.maxOrder {
		return 0, fmt.Errorf("%w: %d bytes requested", ErrOutOfMemory, size)
	}
	off := batch.read8(b.headsOff + uint64(from)*8)
	b.unlink(batch, from, off)
	// Split down to the wanted order, freeing the upper halves.
	for o := from; o > want; o-- {
		half := o - 1
		buddy := off + (uint64(1) << half)
		b.push(batch, half, buddy)
	}
	batch.stage1(b.granuleMapOff(off), byte(want))
	return off, nil
}

// Free returns the block at off (allocated with the given size) to the
// arena, coalescing with its buddy at each order while possible. Double
// frees and size mismatches are detected via the order map and rejected.
func (b *Buddy) Free(off, size uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	order := orderFor(size)
	if off < b.heapOff || off >= b.heapOff+b.heapSize || (off-b.heapOff)%(uint64(1)<<order) != 0 {
		return fmt.Errorf("%w: offset %#x", ErrBadFree, off)
	}
	replayLog(b.redo, b.logOff) // finish any interrupted prior commit
	// A parked block's order-map byte still reads allocated, so the map
	// check below cannot catch a second free of it; the cache itself can.
	if _, parked := b.slab.cached[off]; parked {
		return fmt.Errorf("%w: offset %#x already freed (parked)", ErrBadFree, off)
	}
	if got := loadByte(b.dev, b.granuleMapOff(off)); got != byte(order) {
		return fmt.Errorf("%w: offset %#x marked %#x, freeing order %d", ErrBadFree, off, got, order)
	}
	// Slab fast path: park the block instead of running a redo cycle.
	if b.slabFree(off, order) {
		b.inUse -= BlockSize(size)
		return nil
	}
	batch := b.batch
	batch.reset()
	b.freeInBatch(batch, off, order)
	b.stageChecksums(batch)
	batch.commit()
	b.inUse -= BlockSize(size)
	return nil
}

// freeInBatch stages one block's free — coalescing with its buddy at
// each order while possible — into an open redo batch. The caller has
// already validated the block's map byte.
func (b *Buddy) freeInBatch(batch *redoBatch, off uint64, order uint) {
	for order < b.maxOrder {
		rel := off - b.heapOff
		buddyRel := rel ^ (uint64(1) << order)
		if buddyRel+(uint64(1)<<order) > b.heapSize {
			break
		}
		buddy := b.heapOff + buddyRel
		if batch.read1(b.granuleMapOff(buddy)) != mapFreeFlag|byte(order) {
			break
		}
		b.unlink(batch, order, buddy)
		batch.stage1(b.granuleMapOff(buddy), mapInterior)
		batch.stage1(b.granuleMapOff(off), mapInterior)
		if buddy < off {
			off = buddy
		}
		order++
	}
	b.push(batch, order, off)
}

// push stages linking off at the head of the free list for order.
func (b *Buddy) push(batch *redoBatch, order uint, off uint64) {
	headOff := b.headsOff + uint64(order)*8
	oldHead := batch.read8(headOff)
	batch.stage8(off, oldHead) // next
	batch.stage8(off+8, 0)     // prev
	if oldHead != 0 {
		batch.stage8(oldHead+8, off)
	}
	batch.stage8(headOff, off)
	batch.stage1(b.granuleMapOff(off), mapFreeFlag|byte(order))
}

// unlink stages removing the free block off from the list for order.
func (b *Buddy) unlink(batch *redoBatch, order uint, off uint64) {
	next := batch.read8(off)
	prev := batch.read8(off + 8)
	if prev == 0 {
		batch.stage8(b.headsOff+uint64(order)*8, next)
	} else {
		batch.stage8(prev, next)
	}
	if next != 0 {
		batch.stage8(next+8, prev)
	}
}

// InUse reports the bytes currently allocated (block-size granularity).
func (b *Buddy) InUse() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inUse
}

// FreeBytes walks the free lists and reports the total free space,
// counting slab-parked blocks: they are allocatable, just staged closer.
func (b *Buddy) FreeBytes() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.freeBytesLocked() + b.slab.bytes
}

// FreeSummary describes the arena's free-space shape for fragmentation
// metrics: how much is free, in how many blocks, and the largest
// contiguous block an allocation could still get.
type FreeSummary struct {
	FreeBytes    uint64
	FreeBlocks   uint64
	LargestBlock uint64
}

// FreeSummary walks the free lists and summarizes them. A healthy arena
// has few blocks and a large LargestBlock; FreeBytes much larger than
// LargestBlock means buddy fragmentation.
func (b *Buddy) FreeSummary() FreeSummary {
	b.mu.Lock()
	defer b.mu.Unlock()
	var s FreeSummary
	for o := uint(MinOrder); o <= b.maxOrder; o++ {
		steps := 0
		for off := b.dev.Load8(b.headsOff + uint64(o)*8); off != 0; off = b.dev.Load8(off) {
			if !b.Owns(off) || steps > int(b.heapSize/Granule) {
				break // corrupt list; CheckConsistency reports the details
			}
			steps++
			s.FreeBlocks++
			s.FreeBytes += uint64(1) << o
			if uint64(1)<<o > s.LargestBlock {
				s.LargestBlock = uint64(1) << o
			}
		}
	}
	return s
}

func (b *Buddy) freeBytesLocked() uint64 {
	var total uint64
	for o := uint(MinOrder); o <= b.maxOrder; o++ {
		steps := 0
		for off := b.dev.Load8(b.headsOff + uint64(o)*8); off != 0; off = b.dev.Load8(off) {
			if !b.Owns(off) || steps > int(b.heapSize/Granule) {
				// Corrupt list; CheckConsistency reports the details.
				break
			}
			steps++
			total += uint64(1) << o
		}
	}
	return total
}

// CheckConsistency validates every free-list and order-map invariant:
// list links are symmetric, map entries agree with list membership, blocks
// are aligned and in-bounds, and no two blocks overlap. Tests call it after
// every simulated crash, and corundum-fsck uses it on untrusted images, so
// it must return errors rather than fault on wild pointers.
func (b *Buddy) CheckConsistency() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.checkConsistencyLocked()
}

func (b *Buddy) checkConsistencyLocked() error {
	covered := make(map[uint64]uint) // block head rel offset -> order (free)
	for o := uint(MinOrder); o <= b.maxOrder; o++ {
		prev := uint64(0)
		headOff := b.headsOff + uint64(o)*8
		steps := 0
		for off := b.dev.Load8(headOff); off != 0; off = b.dev.Load8(off) {
			if off < b.heapOff || off >= b.heapOff+b.heapSize {
				return fmt.Errorf("alloc: free list order %d contains wild pointer %#x", o, off)
			}
			if steps++; steps > int(b.heapSize/Granule)+1 {
				return fmt.Errorf("alloc: free list order %d longer than the heap (cycle?)", o)
			}
			rel := off - b.heapOff
			if rel+(uint64(1)<<o) > b.heapSize {
				return fmt.Errorf("alloc: free block %#x order %d out of bounds", off, o)
			}
			if rel%(uint64(1)<<o) != 0 {
				return fmt.Errorf("alloc: free block %#x misaligned for order %d", off, o)
			}
			if got := loadByte(b.dev, b.granuleMapOff(off)); got != mapFreeFlag|byte(o) {
				return fmt.Errorf("alloc: free block %#x order %d has map byte %#x", off, o, got)
			}
			if gotPrev := b.dev.Load8(off + 8); gotPrev != prev {
				return fmt.Errorf("alloc: block %#x prev %#x, want %#x", off, gotPrev, prev)
			}
			if _, dup := covered[rel]; dup {
				return fmt.Errorf("alloc: block %#x on multiple free lists", off)
			}
			covered[rel] = o
			prev = off
		}
	}
	// No free block may overlap another free block.
	type span struct{ start, end uint64 }
	var spans []span
	for rel, o := range covered {
		spans = append(spans, span{rel, rel + (uint64(1) << o)})
	}
	for i, a := range spans {
		for j, c := range spans {
			if i != j && a.start < c.end && c.start < a.end {
				return fmt.Errorf("alloc: free blocks overlap: [%#x,%#x) and [%#x,%#x)", a.start, a.end, c.start, c.end)
			}
		}
	}
	// Slab cache coherence: every parked block must still read allocated
	// in the order map (so no free-list walk can reach it) and its ledger
	// slot must hold a matching, CRC-valid entry.
	for ci := range b.slab.classes {
		order := uint(ci + MinOrder)
		for _, blk := range b.slab.classes[ci] {
			if got := loadByte(b.dev, b.granuleMapOff(blk.off)); got != byte(order) {
				return fmt.Errorf("alloc: parked block %#x order %d has map byte %#x", blk.off, order, got)
			}
			pos := b.slabSlotOff(blk.slot)
			gotOff := b.dev.Load8(pos)
			gotMeta := b.dev.Load8(pos + 8)
			if gotOff != blk.off || gotMeta != slabMeta(blk.off, order) {
				return fmt.Errorf("alloc: parked block %#x order %d has stale ledger slot %d", blk.off, order, blk.slot)
			}
		}
	}
	return nil
}
