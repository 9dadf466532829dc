package journal

import (
	"corundum/internal/pmem"
)

// Recover walks every journal slot after a crash and restores atomicity:
//
//   - A journal in stateIdle has no in-flight transaction; its buffer
//     contents (if any) are stale and ignored.
//   - A journal in stateRunning belongs to a transaction that never
//     reached its commit point: its data entries are undone in reverse,
//     its allocations reclaimed, its drops ignored.
//   - A journal in stateCommitting crashed after the commit point: its
//     updates stand and only its deferred drops still need applying.
//
// Both paths are idempotent (allocator state is consulted before every
// free), so a crash during recovery is handled by running Recover again.
// It returns the number of transactions rolled back and rolled forward.
func Recover(dev *pmem.Device, heap Heap, dirOff, bufOff, bufCap uint64, n int) (rolledBack, rolledForward int) {
	// Recovery's own stores go through rec; allocator frees inside are
	// charged by the allocator's own handle (innermost wins).
	rec := dev.In(pmem.ScopeRecovery)
	for i := 0; i < n; i++ {
		bOff := bufOff + uint64(i)*bufCap
		word := stateWord(dev, bOff)
		state := byte(word)
		epoch := word >> 8
		if state == stateIdle {
			// Nothing to recover, but the directory mirror may lag the
			// buffer word (a lazy retire's mirror write lost at the crash)
			// or carry at-rest damage; the buffer word is authoritative
			// either way, so resync in place.
			if slotStale(dev, dirOff, bOff, i) {
				RepairSlot(rec, dirOff, bufOff, bufCap, i)
			}
			continue
		}
		entries := scanBuffer(dev, bOff, bufCap, epoch)
		var pages []entry
		for _, e := range entries {
			if e.kind == entryLink {
				pages = append(pages, e)
			}
		}
		switch state {
		case stateCommitting:
			for _, e := range entries {
				if e.kind == entryDrop && heap.IsAllocated(e.off, e.size) {
					if err := heap.Free(e.off, e.size); err != nil {
						panic("journal: recovery drop failed: " + err.Error())
					}
				}
			}
			rolledForward++
		default: // stateRunning
			if len(entries) == 0 {
				// Activated but nothing valid logged: nothing to undo in the
				// buffer — but the transaction may still own slab claims
				// (claim-only transactions log no entries at all), so this is
				// a rollback and must bump like one.
				clearSlot(rec, dirOff, bOff, i, true)
				rolledBack++
				continue
			}
			for k := len(entries) - 1; k >= 0; k-- {
				e := entries[k]
				switch e.kind {
				case entryData:
					// Write (not Copy, which is uncounted) so the restore is an
					// injectable device op: exhaustive exploration must be able
					// to cut power between any two recovery stores, and a store
					// the injector cannot see would be an unexplorable gap.
					old := make([]byte, e.size)
					dev.LoadBytes(e.pl, old)
					rec.Write(e.off, old)
					rec.Flush(e.off, e.size)
				case entryAlloc:
					if heap.IsAllocated(e.off, e.size) {
						if err := heap.Free(e.off, e.size); err != nil {
							panic("journal: recovery free failed: " + err.Error())
						}
					}
				}
			}
			rec.Fence()
			rolledBack++
		}
		// Reclaim continuation pages BEFORE retiring the log (an idle
		// journal is invisible to a later recovery, so freeing after the
		// retire would leak pages if we crash in between), tail-first
		// (freeing clobbers a page's head with free-list links, so the
		// chain must only ever be severed at pages already freed), and
		// idempotently (a crash during a previous recovery may have freed
		// some already).
		for k := len(pages) - 1; k >= 0; k-- {
			pg := pages[k]
			if heap.IsAllocated(pg.off, pg.size) {
				if err := heap.Free(pg.off, pg.size); err != nil {
					panic("journal: recovery page free failed: " + err.Error())
				}
			}
		}
		clearSlot(rec, dirOff, bOff, i, state != stateCommitting)
	}
	return rolledBack, rolledForward
}

// ClaimAborted reports whether a slab claim stamped with the low 16 epoch
// bits e16 by the journal whose buffer starts at bufOff belongs to a
// transaction that provably never committed. The pool calls it after
// Recover (every journal idle) to resolve crash-surviving claims:
//
//   - word epoch == e16+1: recovery just rolled the claiming transaction
//     back (clearSlot bumped it) — aborted, free the block.
//   - word epoch behind e16 (within half the 16-bit window): the claiming
//     transaction never durably started, let alone committed — free.
//     Begin bumps the epoch without touching the media, so a claim may
//     legitimately sit several epochs above the durable word.
//   - word epoch == e16: the transaction committed (its commit fence made
//     the word durable; an in-process abort would have re-parked the block
//     and the park outranks the claim at replay) — the block is owned.
//   - anything else (word epochs further ahead): later transactions'
//     fences would have persisted the claim's pending retire, so the claim
//     should not exist; default to owned, which can at worst leak — never
//     double-allocate.
func ClaimAborted(dev *pmem.Device, bufOff uint64, e16 uint16) bool {
	word := stateWord(dev, bufOff)
	if byte(word) != stateIdle {
		return false // not settled: be leak-safe, never free
	}
	we := uint16(word >> 8)
	if we == e16+1 {
		return true
	}
	d := e16 - we
	return d > 0 && d < 0x8000
}

// clearSlot retires a recovered journal: state idle, directory mirror
// resynced, one fence covering both words. A rolled-back transaction
// (bump) retires with epoch+1 — that is what lets the pool's slab-claim
// resolver tell "epoch e rolled back in recovery" (idle at e+1) apart
// from "epoch e committed" (idle at e), since neither leaves log entries
// behind for a claim-only transaction. A rolled-forward commit keeps its
// / epoch, marking its claims as owned. Idempotent under re-crash: the
// bumped word is itself idle, so a second recovery pass skips the slot.
func clearSlot(dev pmem.Handle, dirOff, bufOff uint64, index int, bump bool) {
	epoch := stateWord(dev.Device, bufOff) >> 8
	if bump {
		epoch++
	}
	word := epoch<<8 | stateIdle
	var w [8]byte
	putUint64(w[:], word)
	dev.Write(bufOff, w[:])
	dev.Flush(bufOff, stateSize)
	slot := dirOff + uint64(index)*slotSize
	putUint64(w[:], encodeSlotWord(index, word))
	dev.Write(slot, w[:])
	dev.Persist(slot, stateSize)
}
