// Package journal implements Corundum's per-thread journal objects: the
// undo log that makes transactions failure-atomic. Before a transaction
// mutates persistent data it logs the old bytes (DataLog); allocations are
// logged so an aborted transaction reclaims them (AllocLog); deallocations
// are deferred to commit via drop logs (DropLog), so an aborted transaction
// keeps its objects. Recovery walks every journal left behind by a crash
// and rolls the pool back (or, for a crash during commit, forward).
package journal

import (
	"errors"
	"fmt"
	"slices"

	"corundum/internal/alloc"
	"corundum/internal/pmem"
)

// Heap is the allocator surface a journal needs. The pool implements it by
// routing to the right buddy arena, keeping this package decoupled from
// pool layout.
type Heap interface {
	// AllocEx allocates from the arena bound to this journal, folding the
	// extra updates into the allocation's crash-atomic step.
	AllocEx(arena int, size uint64, payload []byte, extra func(off uint64) []alloc.Update) (uint64, error)
	// AllocClaim serves the request from the arena's slab cache with zero
	// fences (deferred-fence mode), stamping the block's ledger slot with
	// (arena, epoch) so a crash resolves ownership against this journal's
	// durable state word; reports false when the cache cannot serve it.
	AllocClaim(arena int, size uint64, payload []byte, epoch uint64) (uint64, bool)
	// RetireClaims recycles the arena's claim ledger slots. The journal
	// calls it only once the claiming transaction's outcome (commit or
	// abort) is already durably fenced.
	RetireClaims(arena int)
	// Free returns a block to whichever arena owns it.
	Free(off, size uint64) error
	// IsAllocated reports whether off is an allocated block of size's order.
	IsAllocated(off, size uint64) bool
	// Reclaim runs fn with every allocation in the heap held out until it
	// returns (or panics). A commit applies its drops and retires to a
	// durable idle inside it: a block freed under a non-idle journal state
	// must not reach another transaction before that journal is durably
	// idle, or a crash in between has recovery re-apply the drop against
	// the block's new owner.
	Reclaim(fn func())
}

// Journal states, persisted in the low byte of the state word at the log
// buffer head; the remaining seven bytes carry the transaction epoch. The
// state word and the first log entry share a cache line, so opening a
// transaction's log costs no fence beyond the first entry's own. Every
// entry's checksum is seeded with the epoch, which makes entries from
// different transactions structurally unmixable: recovery can never pair
// a state word with another transaction's entries, even under adversarial
// cache eviction.
const (
	stateIdle       = 0 // buffer contents are meaningless; nothing to recover
	stateRunning    = 1 // an in-flight transaction: roll back on recovery
	stateCommitting = 2 // commit point reached: roll drops forward
)

// stateSize is the on-media size of the state word at the buffer head.
const stateSize = 8

// slotSize is the directory footprint per journal: one cache line to avoid
// false sharing between concurrently running transactions.
const slotSize = pmem.CacheLineSize

// ErrTxTooLarge reports that a single log entry cannot fit a journal
// segment (one undo payload larger than a continuation page), or that the
// arena ran out of space for continuation pages. Transactions themselves
// are unbounded: the journal chains pages from its arena as it grows, as
// the paper's journals do.
var ErrTxTooLarge = errors.New("journal: log entry exceeds journal segment capacity")

// Journal is one persistent journal and the volatile bookkeeping for the
// transaction currently using it. A journal serves one transaction at a
// time; the pool hands idle journals to new transactions.
type Journal struct {
	dev     *pmem.Device // commit-time data flush and fence: user-data traffic
	log     pmem.Handle  // log entries and state words: journal traffic
	heap    Heap
	arena   int    // allocator arena this journal allocates from
	slotOff uint64 // directory entry
	bufOff  uint64
	bufCap  uint64

	// Volatile transaction state.
	epoch     uint64   // current transaction epoch (seeds entry CRCs)
	started   bool     // the stateRunning word has been staged
	flushedTo uint64   // log bytes below this are persisted (deferred appends lag)
	tail      uint64   // next append position within the buffer
	segEnd    uint64   // end of the current log segment (head buffer or chained page)
	pages     []uint64 // continuation pages chained by this transaction
	live      []entry  // entries this tx appended (commit/rollback use
	//                             these instead of re-scanning and re-checksumming
	//                             the persistent log; recovery scans)
	allocSpans []span              // blocks allocated this tx (fresh-block undo skip)
	undo       []byte              // scratch for the old bytes of one data entry
	logged     map[uint64]struct{} // data offsets already undo-logged this tx
	held       map[uint64]struct{} // lock keys held until transaction end
	depth      int                 // flattened-nesting depth
	defers     []func()            // run after commit or abort (lock releases)
	aborted    bool
	logBytes   uint64 // log bytes appended by the current transaction

	// Commit-path scratch, so a transaction touches no Go heap: the
	// method values are bound once at attach, and the entry the next
	// AllocEx seals lives here rather than in a fresh closure.
	sealing   reserved                    // the entry sealReserved validates
	sealWords [3]alloc.Update             // sealReserved's result
	seal      func(uint64) []alloc.Update // j.sealReserved
	drop      func()                      // j.applyDrops
}

// DirSize returns the directory bytes needed for n journal slots.
func DirSize(n int) uint64 { return uint64(n) * slotSize }

// Format initializes n journal slots: directory at dirOff (one
// checksummed mirror slot per journal, see dirslot.go), buffers of
// bufCap bytes each at bufOff. It returns the journals. The caller
// persists the containing region.
func Format(dev *pmem.Device, heap Heap, dirOff, bufOff, bufCap uint64, n int) []*Journal {
	log := dev.In(pmem.ScopeJournal)
	js := make([]*Journal, n)
	for i := range js {
		slot := dirOff + uint64(i)*slotSize
		var sw [slotSize]byte
		putUint64(sw[:], encodeSlotWord(i, 0)) // idle, epoch 0
		log.Write(slot, sw[:])
		b := bufOff + uint64(i)*bufCap
		log.Write(b, make([]byte, stateSize+1)) // stateIdle + terminator
		log.Persist(b, stateSize+1)
		js[i] = attach(dev, heap, i, slot, b, bufCap)
	}
	log.Persist(dirOff, DirSize(n))
	return js
}

// Attach reconnects to n existing journal slots without recovering them;
// call Recover on the set first.
func Attach(dev *pmem.Device, heap Heap, dirOff, bufOff, bufCap uint64, n int) []*Journal {
	js := make([]*Journal, n)
	for i := range js {
		js[i] = attach(dev, heap, i, dirOff+uint64(i)*slotSize, bufOff+uint64(i)*bufCap, bufCap)
	}
	return js
}

func attach(dev *pmem.Device, heap Heap, arena int, slotOff, bufOff, bufCap uint64) *Journal {
	j := &Journal{dev: dev, log: dev.In(pmem.ScopeJournal), heap: heap, arena: arena, slotOff: slotOff, bufOff: bufOff, bufCap: bufCap}
	j.seal, j.drop = j.sealReserved, j.applyDrops
	// Resume epochs above whatever is durable so new entries can never
	// validate against a stale state word.
	j.epoch = stateWord(dev, bufOff) >> 8
	return j
}

// stateWord reads the journal's packed [epoch<<8 | state] word.
func stateWord(dev *pmem.Device, bufOff uint64) uint64 {
	return dev.Load8(bufOff)
}

// Arena returns the allocator arena index bound to this journal.
func (j *Journal) Arena() int { return j.arena }

// Begin starts (or, when nested, joins) a transaction on this journal.
// Nested begins flatten, as in the paper: only the outermost End commits.
// Begin touches no persistent memory: the journal becomes durably active
// with its first log append (the state word rides the first entry's
// flush+fence, sharing its cache line).
func (j *Journal) Begin() {
	if j.depth == 0 {
		j.tail = j.bufOff + stateSize
		j.segEnd = j.bufOff + j.bufCap
		j.pages = j.pages[:0]
		j.epoch++
		j.started = false
		j.flushedTo = j.bufOff
		j.aborted = false
		j.logBytes = 0
		j.live = j.live[:0]
		j.allocSpans = j.allocSpans[:0]
		if j.logged == nil {
			j.logged = make(map[uint64]struct{}, 16)
		}
	}
	j.depth++
}

// Depth reports the current flattened-nesting depth.
func (j *Journal) Depth() int { return j.depth }

// Defer registers fn to run after the outermost End (commit or abort).
// The typed layer uses it to release PMutexes at transaction end.
func (j *Journal) Defer(fn func()) { j.defers = append(j.defers, fn) }

// HoldLock acquires a lock for the remainder of the transaction: lock runs
// now, unlock after the outermost End. Re-acquiring the same key in the
// same transaction is a no-op, which is what makes PMutex and Parc
// operations re-entrant within a transaction while still holding their
// locks to the commit point for isolation (Design Goal 5).
func (j *Journal) HoldLock(key uint64, lock, unlock func()) {
	if j.held == nil {
		j.held = make(map[uint64]struct{}, 4)
	}
	if _, ok := j.held[key]; ok {
		return
	}
	lock()
	j.held[key] = struct{}{}
	j.Defer(func() {
		delete(j.held, key)
		unlock()
	})
}

// Holds reports whether the transaction currently holds the lock key.
func (j *Journal) Holds(key uint64) bool {
	_, ok := j.held[key]
	return ok
}

// MarkAborted poisons the transaction so the outermost End rolls back.
func (j *Journal) MarkAborted() { j.aborted = true }

// LogBytes reports the log bytes appended by the current transaction (or,
// between End and the next Begin, by the most recent one): undo payloads,
// entry headers, and chain links. It is the per-transaction logging cost
// the paper's Fig. 9 prices, exposed for metrics.
func (j *Journal) LogBytes() uint64 { return j.logBytes }

// End closes one nesting level. At the outermost level it commits the
// transaction (or aborts, if MarkAborted was called) and runs deferred
// callbacks. It reports whether the transaction committed.
func (j *Journal) End() bool {
	if j.depth == 0 {
		panic("journal: End without Begin")
	}
	j.depth--
	if j.depth > 0 {
		return !j.aborted
	}
	committed := !j.aborted
	if j.aborted {
		j.rollback()
	} else {
		j.commit()
	}
	for i := len(j.defers) - 1; i >= 0; i-- {
		j.defers[i]()
	}
	j.defers = j.defers[:0]
	clear(j.logged)
	return committed
}

// DataLog takes an undo log of [off, off+n) unless this transaction already
// logged that offset. The mutation may only happen after DataLog returns,
// mirroring how Corundum's DerefMut logs on first dereference. Payloads
// larger than a journal segment are chunked across entries, so snapshot
// size is unbounded.
func (j *Journal) DataLog(off, n uint64) error {
	if _, done := j.logged[off]; done {
		return nil
	}
	if j.freshSpan(off, n) {
		// The range lies wholly inside a block this same transaction
		// allocated: its pre-transaction bytes are free-space garbage nobody
		// can observe after a rollback (the block itself is reclaimed via its
		// alloc record), so an undo entry buys nothing and costs a fence.
		// Record a volatile flush-only entry so commit still persists the
		// mutated range before the commit point.
		j.live = append(j.live, entry{kind: entryFlushOnly, off: off, size: n})
		j.logged[off] = struct{}{}
		return nil
	}
	if err := j.appendChunked(off, n); err != nil {
		return err
	}
	j.logged[off] = struct{}{}
	return nil
}

// span is a half-open range of heap bytes allocated by the live
// transaction.
type span struct{ start, end uint64 }

// freshSpan reports whether [off, off+n) lies wholly inside a block this
// transaction allocated.
func (j *Journal) freshSpan(off, n uint64) bool {
	for _, s := range j.allocSpans {
		if off >= s.start && off+n <= s.end {
			return true
		}
	}
	return false
}

// maxDataPayload bounds one data entry's payload so that an entry plus a
// chain-link reservation always fits a continuation page.
const maxDataPayload = chainPageSize / 2

func (j *Journal) appendChunked(off, n uint64) error {
	for n > 0 {
		chunk := min(n, maxDataPayload)
		j.undo = slices.Grow(j.undo[:0], int(chunk))[:chunk]
		j.dev.LoadBytes(off, j.undo)
		if err := j.append(entryData, off, chunk, j.undo); err != nil {
			return err
		}
		off += chunk
		n -= chunk
	}
	return nil
}

// DataLogForce appends an undo entry unconditionally, bypassing the
// first-touch deduplication. It exists for the ablation study that
// quantifies what the paper's log-on-first-DerefMut rule is worth; library
// code always uses DataLog.
func (j *Journal) DataLogForce(off, n uint64) error {
	return j.appendChunked(off, n)
}

// Logged reports whether off was already undo-logged in this transaction.
func (j *Journal) Logged(off uint64) bool {
	_, ok := j.logged[off]
	return ok
}

// Alloc obtains size bytes from the journal's arena and logs the
// allocation, so that an abort or crash before commit reclaims it. The
// block and the log entry become durable in one crash-atomic step.
func (j *Journal) Alloc(size uint64) (uint64, error) {
	return j.allocEx(size, nil)
}

// AllocInit allocates and initializes a block with data in one
// crash-atomic step, logging the allocation.
func (j *Journal) AllocInit(data []byte) (uint64, error) {
	return j.allocEx(uint64(len(data)), data)
}

func (j *Journal) allocEx(size uint64, payload []byte) (uint64, error) {
	// Deferred-fence fast path: a slab claim hands the block out with zero
	// fences and no log entry at all. The ledger's claim word — stamped
	// with this journal's index and epoch in one atomic 8-byte write —
	// replaces the sealed alloc entry: after a crash the pool frees the
	// block exactly when this transaction provably never committed, which
	// is what the entry would have bought, minus its redo-cycle fences.
	if off, ok := j.heap.AllocClaim(j.arena, size, payload, j.epoch); ok {
		j.ensureStarted()
		j.live = append(j.live, entry{kind: entryAlloc, off: off, size: size})
		j.allocSpans = append(j.allocSpans, span{off, off + alloc.BlockSize(size)})
		return off, nil
	}
	r, err := j.reserve(entryAlloc, size)
	if err != nil {
		return 0, err
	}
	off, err := j.allocSealed(r, payload)
	if err != nil {
		// Nothing was committed; drop the reservation.
		j.tail = r.hdr
		return 0, err
	}
	j.finishAppend(r.hdr)
	j.live = append(j.live, entry{kind: entryAlloc, off: off, size: size})
	j.allocSpans = append(j.allocSpans, span{off, off + alloc.BlockSize(size)})
	return off, nil
}

// ensureStarted durably-activates the journal's volatile side without an
// append: the stateRunning word is written (and its directory mirror
// flushed) but not fenced — it rides the transaction's next append or the
// commit's tail flush, exactly as it does when the first append writes it.
func (j *Journal) ensureStarted() {
	if j.started {
		return
	}
	j.writeState(stateRunning)
	j.started = true
}

// DropLog records that the block at off (of the given size) should be freed
// when the transaction commits. An abort keeps the block, matching drop
// semantics: deallocation is deferred and failure-atomic.
//
// Unlike data entries, drop entries gate nothing until commit: they are
// only read on the roll-forward path, which starts with the commit
// point's own fence. So the append is not persisted here — commit flushes
// the log tail before publishing stateCommitting — making DropLog nearly
// free (the paper measures it at tens of nanoseconds, size-independent).
func (j *Journal) DropLog(off, size uint64) error {
	return j.appendDeferred(entryDrop, off, size)
}

// commit makes the transaction durable and applies deferred drops:
//  1. flush every mutated range (the undo entries name them) and fence,
//  2. persist state=committing — the commit point,
//  3. free drop-logged blocks (idempotent against re-crash),
//  4. persist state=idle, which retires the log in one atomic word.
func (j *Journal) commit() {
	if !j.started {
		return // read-only transaction: no PM traffic at all
	}
	// The volatile mirror lists exactly the entries this transaction
	// appended; recovery is the only reader that must scan the persistent
	// log itself.
	entries := j.live
	if len(entries) == 0 {
		// Activated (e.g. a failed reserve) but nothing valid logged. Free
		// any chained pages while the log is still live: a crash mid-free
		// recovers under the running state and re-frees reachable pages.
		j.freePages()
		j.setState(stateIdle)
		j.tail = j.bufOff + stateSize
		return
	}
	// The typed layer stores through UnsafeAddr, unseen by the device, so
	// each range is marked here, just before its flush: a mark made at
	// DataLog time could be cleared by a sibling commit's flush of a
	// shared line before the store lands.
	for _, e := range entries {
		if e.kind == entryData || e.kind == entryFlushOnly {
			j.dev.FlushUnsafe(e.off, e.size)
		}
	}
	hasDrops := false
	for _, e := range entries {
		if e.kind == entryDrop {
			hasDrops = true
			break
		}
	}
	if j.flushedTo < j.tail+1 {
		// Deferred (drop) appends: flush the log tail so the single data
		// fence below makes log and data durable together, BEFORE any state
		// transition is even written. The commit record must never be able
		// to reach the media (e.g. via cache eviction) ahead of the entries
		// it governs.
		j.log.Flush(j.flushedTo, j.tail+1-j.flushedTo)
		j.flushedTo = j.tail + 1
	}
	j.dev.Fence()
	if !hasDrops && len(j.pages) == 0 {
		// The idle transition is the commit point; nothing destructive
		// follows, so one persist retires the log. The outcome is now
		// durably fenced, so claim slots may recycle.
		j.setState(stateIdle)
		j.heap.RetireClaims(j.arena)
		j.tail = j.bufOff + stateSize
		return
	}
	// Drops or chained pages remain: both destroy state, so they must
	// happen under stateCommitting, whose recovery path re-applies drops
	// and re-frees pages idempotently. The log may not retire to idle
	// until the last page is freed, or a crash in between would leak the
	// pages forever (idle journals are invisible to recovery).
	j.setState(stateCommitting) // commit point: drops and frees may now apply
	j.heap.RetireClaims(j.arena)
	if hasDrops {
		// A dropped block may belong to another journal's arena, and
		// recovery re-applies a drop whenever the block reads allocated —
		// which it also does once a new owner holds it. So no allocation
		// may see these frees until this journal is durably idle: the
		// heap holds every allocator out for the length of the call, and
		// the retire inside it is eager.
		j.heap.Reclaim(j.drop)
		j.tail = j.bufOff + stateSize
		return
	}
	// Chained pages only. They come from this journal's own arena, which
	// nothing else allocates from while the transaction holds the slot,
	// and the next transaction on this journal starts by overwriting the
	// same state word — so the retire can stay lazy: flushed but not
	// fenced. Any later fence carries it, and a crash that still observes
	// stateCommitting merely re-frees the pages idempotently; epoch-seeded
	// checksums stop any later transaction's entries from being mistaken
	// for this one's.
	j.freePages()
	j.writeState(stateIdle)
	j.log.Flush(j.bufOff, stateSize)
	j.tail = j.bufOff + stateSize
}

// applyDrops is a commit's destructive tail, run under Heap.Reclaim: it
// frees the drop-logged blocks and chained pages, then retires the
// journal to a durable idle.
func (j *Journal) applyDrops() {
	for _, e := range j.live {
		if e.kind == entryDrop {
			if err := j.heap.Free(e.off, e.size); err != nil {
				panic(fmt.Sprintf("journal: drop of %#x failed: %v", e.off, err))
			}
		}
	}
	j.freePages()
	// A dropped block may have parked in the slab cache: a flushed but
	// unfenced ledger write. The idle word must never reach the media
	// ahead of it (an evicted idle word paired with a lost park would
	// leak the block — recovery ignores idle journals), so fence the
	// parks before the retire is even written.
	j.dev.In(pmem.ScopeAllocRedo).Fence()
	j.setState(stateIdle)
}

// freePages returns the transaction's chained continuation pages to the
// heap. It must run BEFORE the log durably retires to idle — recovery
// ignores idle journals, so a crash after the idle transition but before
// the frees would leak the pages forever. Pages are freed tail-first:
// freeing a page lets the allocator clobber its head with free-list
// links, which severs the chain at that page for any post-crash scan, so
// reverse order keeps the invariant that every page a truncated scan
// cannot reach has already been freed.
func (j *Journal) freePages() {
	for i := len(j.pages) - 1; i >= 0; i-- {
		if err := j.heap.Free(j.pages[i], chainPageSize); err != nil {
			panic(fmt.Sprintf("journal: freeing chained page %#x: %v", j.pages[i], err))
		}
	}
	j.pages = j.pages[:0]
}

// rollback undoes the transaction: restore old bytes in reverse order,
// reclaim logged allocations, skip drops.
//
// The journal retires with epoch+1, the same bump recovery's rollback
// applies: an aborted epoch must never durably read idle at its own
// number, because that is indistinguishable from a commit. The case that
// needs it is a crash panic inside the allocator between a slab claim's
// media write and its volatile registration — the block is in no live
// list, so only the claim word survives, and the pool's resolver frees
// it iff the claiming epoch provably aborted.
func (j *Journal) rollback() {
	if !j.started {
		return
	}
	j.epoch++
	entries := j.live
	if len(entries) == 0 {
		j.freePages()
		j.setState(stateIdle)
		j.tail = j.bufOff + stateSize
		return
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		switch e.kind {
		case entryData:
			// Restore from the entry's payload in the log. After a power
			// cut the store panics instead of landing.
			j.dev.Copy(e.off, e.pl, e.size)
			j.dev.Flush(e.off, e.size)
		case entryAlloc:
			if err := j.heap.Free(e.off, e.size); err != nil {
				panic(fmt.Sprintf("journal: rollback free of %#x failed: %v", e.off, err))
			}
		}
	}
	j.dev.Fence()
	// Free pages while the log is still stateRunning: a crash mid-free
	// rolls back again (the undo re-apply is idempotent — it was made
	// durable by the fence above) and re-frees whatever pages the
	// truncated scan still reaches; the rest are already freed.
	j.freePages()
	j.setState(stateIdle)
	j.heap.RetireClaims(j.arena)
	j.tail = j.bufOff + stateSize
}

// writeState stores the packed state+epoch word without persisting it,
// and mirrors the transition into the directory slot. The mirror write
// is flushed here but rides whichever fence persists the state word
// (lazy, no extra fence); being a single aligned word, a crash leaves
// either the old or the new mirror, both checksum-valid.
func (j *Journal) writeState(s byte) {
	word := j.epoch<<8 | uint64(s)
	var w [8]byte
	putUint64(w[:], word)
	j.log.Write(j.bufOff, w[:])
	putUint64(w[:], encodeSlotWord(j.arena, word))
	j.log.Write(j.slotOff, w[:])
	j.log.Flush(j.slotOff, stateSize)
}

// setState persists the journal's state word (8-byte atomic on real PM).
// The persist is journal traffic: the state word is log metadata, and
// attributing its flush+fence here is what makes a commit's fence profile
// read 2 journal : 1 user-data for a plain overwrite (append, commit
// fence, retire), the split the paper's cost model predicts.
func (j *Journal) setState(s byte) {
	j.writeState(s)
	j.log.Persist(j.bufOff, stateSize)
}
