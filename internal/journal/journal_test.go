package journal

import (
	"bytes"
	"testing"

	"corundum/internal/alloc"
	"corundum/internal/pmem"
)

// testHeap adapts a single buddy arena to the Heap interface.
type testHeap struct{ b *alloc.Buddy }

func (h testHeap) AllocEx(arena int, size uint64, payload []byte, extra func(off uint64) []alloc.Update) (uint64, error) {
	return h.b.AllocEx(size, payload, extra)
}
func (h testHeap) AllocClaim(arena int, size uint64, payload []byte, epoch uint64) (uint64, bool) {
	return h.b.AllocClaim(size, payload, arena, epoch)
}
func (h testHeap) RetireClaims(arena int)            { h.b.RetireClaims() }
func (h testHeap) Free(off, size uint64) error       { return h.b.Free(off, size) }
func (h testHeap) IsAllocated(off, size uint64) bool { return h.b.IsAllocated(off, size) }
func (h testHeap) Reclaim(fn func())                 { fn() }

type fixture struct {
	dev  *pmem.Device
	heap testHeap
	js   []*Journal

	dirOff, bufOff, bufCap uint64
	n                      int
	allocMeta, heapOff     uint64
	heapSize               uint64
}

func newFixture(t *testing.T, nJournals int) *fixture {
	t.Helper()
	const bufCap = 1 << 16
	const heapSize = 1 << 20
	dirOff := uint64(0)
	bufOff := DirSize(nJournals)
	allocMeta := bufOff + uint64(nJournals)*bufCap
	heapOff := allocMeta + alloc.MetaSize(heapSize)
	dev := pmem.New(int(heapOff+heapSize), pmem.Options{TrackCrash: true})
	b := alloc.Format(dev, allocMeta, heapOff, heapSize)
	h := testHeap{b}
	js := Format(dev, h, dirOff, bufOff, bufCap, nJournals)
	return &fixture{dev: dev, heap: h, js: js, dirOff: dirOff, bufOff: bufOff, bufCap: bufCap, n: nJournals, allocMeta: allocMeta, heapOff: heapOff, heapSize: heapSize}
}

// reopen simulates a restart: crash the device, replay allocator and
// journal recovery, and return fresh journal handles.
func (f *fixture) reopen(t *testing.T) (rolledBack, rolledForward int) {
	t.Helper()
	f.dev.Crash()
	b := alloc.Open(f.dev, f.allocMeta, f.heapOff, f.heapSize)
	f.heap = testHeap{b}
	rb, rf := Recover(f.dev, f.heap, f.dirOff, f.bufOff, f.bufCap, f.n)
	b.ResolveClaims(func(jIdx int, e16 uint16) bool {
		if jIdx < 0 || jIdx >= f.n {
			return false
		}
		return ClaimAborted(f.dev, f.bufOff+uint64(jIdx)*f.bufCap, e16)
	})
	f.js = Attach(f.dev, f.heap, f.dirOff, f.bufOff, f.bufCap, f.n)
	return rb, rf
}

func (f *fixture) write8(off, val uint64) {
	f.dev.Store8(off, val)
}

func (f *fixture) read8(off uint64) uint64 {
	return f.dev.Load8(off)
}

func TestEmptyTransactionTouchesNoPM(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	w0, fl0 := f.dev.Stats().Writes, f.dev.Stats().Flushes
	j.Begin()
	if !j.End() {
		t.Fatal("empty tx did not commit")
	}
	if w := f.dev.Stats().Writes; w != w0 {
		t.Errorf("empty tx performed %d PM writes", w-w0)
	}
	if fl := f.dev.Stats().Flushes; fl != fl0 {
		t.Errorf("empty tx performed %d flushes", fl-fl0)
	}
}

func TestCommittedUpdateSurvivesCrash(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	cell, err := j.heap.AllocEx(0, 8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.write8(cell, 1)
	f.dev.Persist(cell, 8)

	j.Begin()
	if err := j.DataLog(cell, 8); err != nil {
		t.Fatal(err)
	}
	f.write8(cell, 42)
	j.End()

	f.reopen(t)
	if got := f.read8(cell); got != 42 {
		t.Fatalf("committed value lost: got %d, want 42", got)
	}
}

func TestAbortRestoresOldValue(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	cell, _ := j.heap.AllocEx(0, 8, nil, nil)
	f.write8(cell, 7)
	f.dev.Persist(cell, 8)

	j.Begin()
	if err := j.DataLog(cell, 8); err != nil {
		t.Fatal(err)
	}
	f.write8(cell, 99)
	j.MarkAborted()
	if j.End() {
		t.Fatal("aborted tx reported committed")
	}
	if got := f.read8(cell); got != 7 {
		t.Fatalf("abort did not restore: got %d, want 7", got)
	}
}

func TestCrashMidTransactionRollsBack(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	cell, _ := j.heap.AllocEx(0, 8, nil, nil)
	f.write8(cell, 7)
	f.dev.Persist(cell, 8)

	j.Begin()
	if err := j.DataLog(cell, 8); err != nil {
		t.Fatal(err)
	}
	f.write8(cell, 99)
	f.dev.Persist(cell, 8) // the torn update even reached the media
	// Crash without End: recovery must undo the update.
	rb, _ := f.reopen(t)
	if rb != 1 {
		t.Fatalf("rolled back %d transactions, want 1", rb)
	}
	if got := f.read8(cell); got != 7 {
		t.Fatalf("recovery did not undo: got %d, want 7", got)
	}
}

func TestAllocRolledBackOnAbort(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	free0 := f.heap.b.FreeBytes()
	j.Begin()
	off, err := j.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if !f.heap.IsAllocated(off, 128) {
		t.Fatal("block not allocated inside tx")
	}
	j.MarkAborted()
	j.End()
	if f.heap.IsAllocated(off, 128) {
		t.Fatal("aborted allocation not reclaimed")
	}
	if got := f.heap.b.FreeBytes(); got != free0 {
		t.Fatalf("free bytes %d, want %d", got, free0)
	}
}

func TestAllocRolledBackOnCrash(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	j.Begin()
	off, err := j.AllocInit(bytes.Repeat([]byte{0xAB}, 64))
	if err != nil {
		t.Fatal(err)
	}
	_ = off
	rb, _ := f.reopen(t)
	if rb != 1 {
		t.Fatalf("rolled back %d, want 1", rb)
	}
	if got := f.heap.b.FreeBytes(); got != f.heapSize {
		t.Fatalf("leaked: free %d of %d", got, f.heapSize)
	}
}

func TestDropAppliedOnCommitOnly(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	j.Begin()
	off, err := j.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	j.End()

	// Abort path: drop is ignored.
	j.Begin()
	if err := j.DropLog(off, 64); err != nil {
		t.Fatal(err)
	}
	j.MarkAborted()
	j.End()
	if !f.heap.IsAllocated(off, 64) {
		t.Fatal("drop applied despite abort")
	}

	// Commit path: drop frees the block.
	j.Begin()
	if err := j.DropLog(off, 64); err != nil {
		t.Fatal(err)
	}
	j.End()
	if f.heap.IsAllocated(off, 64) {
		t.Fatal("drop not applied on commit")
	}
	if got := f.heap.b.FreeBytes(); got != f.heapSize {
		t.Fatalf("free bytes %d, want %d", got, f.heapSize)
	}
}

func TestNestedTransactionsFlatten(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	cell, _ := j.heap.AllocEx(0, 8, nil, nil)

	j.Begin()
	if err := j.DataLog(cell, 8); err != nil {
		t.Fatal(err)
	}
	f.write8(cell, 1)
	j.Begin() // nested
	if j.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", j.Depth())
	}
	f.write8(cell, 2)
	j.End() // inner end must not commit
	// A crash here would roll everything back; the inner End is a no-op.
	if j.Depth() != 1 {
		t.Fatalf("depth after inner end = %d, want 1", j.Depth())
	}
	j.End()
	f.reopen(t)
	if got := f.read8(cell); got != 2 {
		t.Fatalf("flattened commit lost updates: got %d", got)
	}
}

func TestDataLogDeduplicates(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	cell, _ := j.heap.AllocEx(0, 8, nil, nil)
	j.Begin()
	if err := j.DataLog(cell, 8); err != nil {
		t.Fatal(err)
	}
	tail1 := j.tail
	if err := j.DataLog(cell, 8); err != nil {
		t.Fatal(err)
	}
	if j.tail != tail1 {
		t.Fatal("second DataLog of same offset appended a new entry")
	}
	if !j.Logged(cell) {
		t.Fatal("Logged() false for logged offset")
	}
	j.End()
}

func TestLargeDataLogChains(t *testing.T) {
	// A snapshot larger than the head buffer is chunked across chained
	// pages instead of failing (see chain_test.go for the full sweep).
	f := newFixture(t, 1)
	j := f.js[0]
	big, err := f.heap.AllocEx(0, 1<<17, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Begin()
	if err := j.DataLog(big, 1<<17); err != nil {
		t.Fatalf("large DataLog failed: %v", err)
	}
	if !j.End() {
		t.Fatal("did not commit")
	}
}

func TestDeferRunsAfterOutermostEnd(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	var order []string
	j.Begin()
	j.Defer(func() { order = append(order, "a") })
	j.Begin()
	j.Defer(func() { order = append(order, "b") })
	j.End()
	if len(order) != 0 {
		t.Fatal("defers ran before outermost End")
	}
	j.End()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("defers ran in order %v, want [b a] (LIFO)", order)
	}
}

// TestCrashAtEveryPoint increments a persistent counter in a transaction
// while injecting a crash at every possible device operation. After
// recovery the counter must hold either the old or the new value and the
// heap must be structurally intact. This is the core atomicity property
// (Design Goal 3, Tx-Are-Atomic).
func TestCrashAtEveryPoint(t *testing.T) {
	for crashAt := 1; crashAt < 200; crashAt++ {
		f := newFixture(t, 1)
		j := f.js[0]
		cell, err := j.heap.AllocEx(0, 8, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.write8(cell, 100)
		f.dev.Persist(cell, 8)

		var count int
		f.dev.SetFaultInjector(func(op pmem.Op) bool {
			count++
			return count == crashAt
		})
		finished := false
		func() {
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrInjectedCrash {
					panic(r)
				}
			}()
			// The transaction: log, mutate, allocate, drop an older block.
			j.Begin()
			if err := j.DataLog(cell, 8); err != nil {
				t.Fatal(err)
			}
			f.write8(cell, 200)
			if _, err := j.Alloc(64); err != nil {
				t.Fatal(err)
			}
			j.End()
			finished = true
		}()
		f.dev.SetFaultInjector(nil)
		if finished && crashAt > count {
			// Ran out of operations before the crash point; done sweeping.
			return
		}
		f.reopen(t)
		got := f.read8(cell)
		if got != 100 && got != 200 {
			t.Fatalf("crashAt=%d: counter torn: %d", crashAt, got)
		}
		if err := f.heap.b.CheckConsistency(); err != nil {
			t.Fatalf("crashAt=%d: heap corrupt after recovery: %v", crashAt, err)
		}
		// If the tx rolled back, its alloc must have been reclaimed; if it
		// committed, exactly one 64B block is in use beyond cell's block.
		free := f.heap.b.FreeBytes()
		cellBlock := alloc.BlockSize(8)
		switch got {
		case 100:
			if free != f.heapSize-cellBlock {
				t.Fatalf("crashAt=%d: rollback leaked: free=%d", crashAt, free)
			}
		case 200:
			if free != f.heapSize-cellBlock-64 {
				t.Fatalf("crashAt=%d: commit lost alloc: free=%d", crashAt, free)
			}
		}
	}
	t.Fatal("crash sweep never exhausted the operation count; raise the bound")
}

// TestDropCrashSweep crashes at every point of a transaction whose only
// effect is dropping a block, verifying the block is freed exactly when the
// transaction commits.
func TestDropCrashSweep(t *testing.T) {
	for crashAt := 1; crashAt < 200; crashAt++ {
		f := newFixture(t, 1)
		j := f.js[0]
		j.Begin()
		blk, err := j.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		j.End()

		var count int
		f.dev.SetFaultInjector(func(op pmem.Op) bool {
			count++
			return count == crashAt
		})
		finished := false
		func() {
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrInjectedCrash {
					panic(r)
				}
			}()
			j.Begin()
			if err := j.DropLog(blk, 256); err != nil {
				t.Fatal(err)
			}
			j.End()
			finished = true
		}()
		f.dev.SetFaultInjector(nil)
		if finished && crashAt > count {
			return
		}
		f.reopen(t)
		if err := f.heap.b.CheckConsistency(); err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		free := f.heap.b.FreeBytes()
		if free != f.heapSize && free != f.heapSize-alloc.BlockSize(256) {
			t.Fatalf("crashAt=%d: drop half-applied: free=%d", crashAt, free)
		}
	}
	t.Fatal("crash sweep never exhausted the operation count; raise the bound")
}

func TestRecoverIsIdempotent(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	cell, _ := j.heap.AllocEx(0, 8, nil, nil)
	f.write8(cell, 5)
	f.dev.Persist(cell, 8)
	j.Begin()
	if err := j.DataLog(cell, 8); err != nil {
		t.Fatal(err)
	}
	f.write8(cell, 6)
	// Crash mid-tx, then recover twice.
	f.reopen(t)
	rb, rf := Recover(f.dev, f.heap, f.dirOff, f.bufOff, f.bufCap, f.n)
	if rb != 0 || rf != 0 {
		t.Fatalf("second recovery acted: rb=%d rf=%d", rb, rf)
	}
	if got := f.read8(cell); got != 5 {
		t.Fatalf("value after double recovery = %d, want 5", got)
	}
}

func TestMultipleJournalsIndependent(t *testing.T) {
	f := newFixture(t, 2)
	j0, j1 := f.js[0], f.js[1]
	c0, _ := f.heap.AllocEx(0, 8, nil, nil)
	c1, _ := f.heap.AllocEx(0, 8, nil, nil)
	for _, c := range []uint64{c0, c1} {
		f.dev.Persist(c, 8)
	}

	j0.Begin()
	j1.Begin()
	if err := j0.DataLog(c0, 8); err != nil {
		t.Fatal(err)
	}
	if err := j1.DataLog(c1, 8); err != nil {
		t.Fatal(err)
	}
	f.write8(c0, 10)
	f.write8(c1, 20)
	j0.End() // j0 commits; j1 is still in flight at the crash
	f.reopen(t)
	if got := f.read8(c0); got != 10 {
		t.Fatalf("committed tx on journal 0 lost: %d", got)
	}
	if got := f.read8(c1); got != 0 {
		t.Fatalf("uncommitted tx on journal 1 leaked: %d", got)
	}
}

// TestReadOnlyTxDoesNotReplayStaleLog is the regression test for a real
// bug: a read-only transaction's commit scanned the journal buffer, found
// the previous transaction's entries (there is no eager truncation), and
// re-applied its drop logs — freeing blocks that had since been
// reallocated and were live.
func TestReadOnlyTxDoesNotReplayStaleLog(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]

	// Tx 1: allocate a block, then drop it.
	j.Begin()
	blk, err := j.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	j.End()
	j.Begin()
	if err := j.DropLog(blk, 64); err != nil {
		t.Fatal(err)
	}
	j.End()

	// Tx 2: reallocate (very likely the same block).
	j.Begin()
	blk2, err := j.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	j.End()
	if !f.heap.IsAllocated(blk2, 64) {
		t.Fatal("freshly allocated block not allocated")
	}

	// Tx 3: read-only. Its commit must not replay tx 1's stale drop.
	j.Begin()
	j.End()
	if !f.heap.IsAllocated(blk2, 64) {
		t.Fatal("read-only transaction freed a live block (stale log replayed)")
	}

	// Same for a read-only abort.
	j.Begin()
	j.MarkAborted()
	j.End()
	if !f.heap.IsAllocated(blk2, 64) {
		t.Fatal("read-only abort freed a live block")
	}
}
