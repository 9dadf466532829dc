package workloads

import (
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// scopeOps is one scope's {writes, flushes, fences}.
type scopeOps [3]uint64

// parityGolden is what the script below charged to each scope at e700eda,
// the last commit that attributed device traffic through the per-goroutine
// scope table. Attribution now rides the handle each layer holds; the
// script must still be charged op for op the same way, through chained
// journal pages, slab refills, claims, drops, and recovery of a power cut
// at every device op of a mixed batch. Captured by running this test body
// at that commit (it logs the observed table on mismatch) with one line
// added to the recover handler to clear the goroutine's label: there a
// cut inside a non-deferred enter/exit pair stranded its label on the
// goroutine and mis-charged every later op, which is the bug the handles
// remove, not behaviour to preserve.
//
// Re-captured once since, when a drop-carrying commit began retiring to
// idle eagerly (journal.commit, the reuse-after-drop invariant): one
// journal fence more on each such commit and nothing else — part 1 alone
// moved by exactly +13 journal fences, its 13 batches that delete — which
// also gives part 2's batch one more device op to cut (331 cut points,
// not 330), so every part-2 total grew by one iteration and one more cut
// now lands after the commit point (rolled forward 11 → 12).
//
// Re-captured again when the store's directory began to grow with its
// keys (format v2). Every store now allocates a geometry record; a batch
// that leaves more keys than buckets splits bucket groups inside its own
// transaction; and the store writes a slot group's eight slots as one
// store (one undo entry per group per transaction, where each touched
// slot was an entry of its own), in a grown segment together with the
// group's word. Those coarser undo entries left part 1's delete batch
// (8,168 log bytes) short of chaining a page in the 8 KiB buffer, so part
// 1 now runs on a 4 KiB buffer; the parent, re-run on 4 KiB, charges part 1
// {326, 65772, 23}, {2174, 1061, 578}, {5778, 2624, 166}. Per scope,
// {writes, flushes, fences}:
//
//   - Part 1 (its 300-key batch grows the base-64 directory to 304
//     buckets: 30 group splits, four segments, two segment tables),
//     against that 4 KiB parent run: user-data {+0, +352, +0}, the
//     commit flushing the fresh segments' groups; alloc-redo {+165, +80,
//     +19}, the record, segment and table allocations; journal {-779,
//     -316, -264}, the coarser undo entries above, and at a load factor
//     of one the delete batch unlinks chain heads where it used to relink
//     mid-chain entries.
//   - Part 2 (a fresh base-8 store per cut): its 40-key preload now also
//     allocates the record, four segments and two tables, which moves the
//     slab cache's 64-byte refill out of the churn batch and into the
//     preload. The churn batch shrinks from 330 device ops to 67, so the
//     loop runs 67 cuts instead of 330 and every scope's part-2 total
//     falls with it: user-data {206695, 5431650, 4637} → {42929, 1107966,
//     957}, journal {29776, 19313, 8210} → {5409, 3939, 1329},
//     alloc-redo {463889, 167905, 8324} → {114952, 42503, 2101},
//     recovery {588, 588, 370} → {232, 299, 98}. Recovery rolls 42 of
//     those cuts back (was 179) and 14 forward (was 12).
//
// Re-captured once more when alloc.Format stopped flushing the whole
// heap of every arena it formats: it now flushes the metadata region and
// each free block's link head, then fences once (it fenced twice). Only
// the user-data flushes and fences of pool creation move:
// {43255, 1174090, 980} → {43255, 68980, 844}, 136 fences being one per
// arena formatted; writes, the other scopes and the recoveries are
// unchanged.
var parityGolden = [pmem.NumScopes]scopeOps{
	pmem.ScopeUserData:  {43255, 68980, 844},
	pmem.ScopeJournal:   {6804, 4684, 1643},
	pmem.ScopeAllocRedo: {120895, 45207, 2286},
	pmem.ScopeRecovery:  {232, 299, 98},
}

const parityRolledBack, parityRolledForward = 42, 14

func TestAttributionParity(t *testing.T) {
	var got [pmem.NumScopes]scopeOps
	charge := func(dev *pmem.Device) {
		st := dev.Stats()
		for sc := range got {
			c := st.ByScope[sc]
			got[sc][0] += c.Writes
			got[sc][1] += c.Flushes
			got[sc][2] += c.Fences
		}
	}
	mem := pmem.Options{TrackCrash: true}

	// Part 1: one long-lived store. A 300-key insert batch drains the slab
	// cache many times over (refills), the overwrite and delete batches
	// that follow outgrow the 4 KiB journal buffer (chained pages), then
	// come set_churn-shaped small batches.
	p, err := pool.Create("", pool.Config{Size: 4 << 20, Journals: 2, JournalCap: 4 << 10, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	kv, err := NewKVStore(corundumeng.Wrap(p), 64)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(kv *KVStore, ops []Op) {
		t.Helper()
		if _, err := kv.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	var batch []Op
	for k := uint64(1); k <= 300; k++ {
		batch = append(batch, Op{Key: k, Val: k * 3})
	}
	dev.SetFlightRecorder(1 << 16)
	apply(kv, batch)
	batch = batch[:0]
	for k := uint64(1); k <= 300; k += 3 {
		batch = append(batch, Op{Key: k, Val: k * 5})
	}
	apply(kv, batch)
	batch = batch[:0]
	for k := uint64(2); k <= 300; k += 2 {
		batch = append(batch, Op{Key: k, Del: true})
	}
	apply(kv, batch)
	heap := p.ArenaMetaRange(p.Journals() - 1)
	chained := false
	for _, e := range dev.FlightEvents() {
		if e.Op == pmem.OpWrite && e.Scope == pmem.ScopeJournal && e.Off >= heap.Off+heap.Len {
			chained = true // a log write that landed in the heap: a continuation page
			break
		}
	}
	dev.SetFlightRecorder(0)
	if !chained {
		t.Fatal("no batch chained a journal page")
	}
	var refills uint64
	for i := 0; i < p.Journals(); i++ {
		refills += p.ArenaSlabStats(i).Refills
	}
	if refills == 0 {
		t.Fatal("no batch refilled a slab class")
	}
	churn := func(kv *KVStore, round uint64) {
		t.Helper()
		apply(kv, []Op{
			{Key: 1000 + round, Val: round},        // insert
			{Key: 1 + 6*round, Val: round},         // overwrite
			{Key: 3 + 6*round, Del: true},          // delete
			{Key: 1 + 6*round, Val: round + 1},     // overwrite, already logged
			{Key: 2000 + round, Val: round},        // insert
			{Key: 2000 + round, Del: true},         // delete what this batch inserted
			{Key: 5 + 6*round, Val: round * round}, // overwrite
			{Key: 999999, Del: true},               // delete of an absent key
		})
	}
	for round := uint64(0); round < 12; round++ {
		churn(kv, round)
	}
	if n, err := kv.Len(); err != nil || n != 150 {
		t.Fatalf("Len = (%d, %v), want 150", n, err)
	}
	charge(dev)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Part 2: the same churn batch on a fresh small store, power cut at
	// every one of its device ops in turn; each cut is followed by a full
	// recovery and one more batch on the recovered store.
	var rolledBack, rolledForward int
	for cut := uint64(1); ; cut++ {
		p, err := pool.Create("", pool.Config{Size: 1 << 20, Journals: 2, JournalCap: 4 << 10, Mem: mem})
		if err != nil {
			t.Fatal(err)
		}
		dev := p.Device()
		kv, err := NewKVStore(corundumeng.Wrap(p), 8)
		if err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
		for k := uint64(1); k <= 40; k++ {
			batch = append(batch, Op{Key: k, Val: k})
		}
		apply(kv, batch)

		dev.CrashAt(dev.OpCount() + cut)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != pmem.ErrInjectedCrash {
						panic(r)
					}
					crashed = true
				}
			}()
			churn(kv, 1)
		}()
		if !crashed {
			break // past the batch's last op
		}
		dev.Crash()
		if p, err = pool.Attach(dev); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		rb, rf := p.Recovery()
		rolledBack += rb
		rolledForward += rf
		if kv, err = AttachKVStore(corundumeng.Wrap(p)); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if _, err := kv.VerifyIntegrity(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		churn(kv, 2)
		charge(dev)
	}

	if rolledBack != parityRolledBack || rolledForward != parityRolledForward {
		t.Errorf("recoveries rolled back %d, forward %d; want %d, %d", rolledBack, rolledForward, parityRolledBack, parityRolledForward)
	}
	if got != parityGolden {
		for sc := pmem.Scope(0); sc < pmem.NumScopes; sc++ {
			t.Errorf("%-10s {writes, flushes, fences} = %v, want %v", sc, got[sc], parityGolden[sc])
		}
	}
}
