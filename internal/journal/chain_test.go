package journal

import (
	"errors"
	"testing"

	"corundum/internal/alloc"
	"corundum/internal/pmem"
)

// chainFixture uses a tiny journal buffer so transactions chain pages
// almost immediately.
func chainFixture(t *testing.T) *fixture {
	t.Helper()
	const bufCap = 1 << 10 // 1 KiB head buffer
	const heapSize = 4 << 20
	dirOff := uint64(0)
	bufOff := DirSize(1)
	allocMeta := bufOff + bufCap
	heapOff := allocMeta + alloc.MetaSize(heapSize)
	dev := pmem.New(int(heapOff+heapSize), pmem.Options{TrackCrash: true})
	b := alloc.Format(dev, allocMeta, heapOff, heapSize)
	h := testHeap{b}
	js := Format(dev, h, dirOff, bufOff, bufCap, 1)
	return &fixture{dev: dev, heap: h, js: js, dirOff: dirOff, bufOff: bufOff, bufCap: bufCap, n: 1, allocMeta: allocMeta, heapOff: heapOff, heapSize: heapSize}
}

// bigTx logs enough data entries to overflow the 1 KiB head buffer many
// times over, mutating `cells` along the way.
func bigTx(t *testing.T, f *fixture, j *Journal, cells []uint64, val uint64) {
	t.Helper()
	for _, c := range cells {
		if err := j.DataLog(c, 256); err != nil {
			t.Fatal(err)
		}
		f.write8(c, val)
	}
}

func makeCells(t *testing.T, f *fixture, n int) []uint64 {
	t.Helper()
	cells := make([]uint64, n)
	for i := range cells {
		off, err := f.heap.AllocEx(0, 256, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.dev.Persist(off, 256)
		cells[i] = off
	}
	return cells
}

func TestChainedTransactionCommits(t *testing.T) {
	f := chainFixture(t)
	j := f.js[0]
	cells := makeCells(t, f, 40) // 40 * ~280B of log ≈ 11 KiB >> 1 KiB buffer
	inUse := f.heap.b.InUse()

	j.Begin()
	bigTx(t, f, j, cells, 7)
	if len(j.pages) == 0 {
		t.Fatal("transaction never chained a page")
	}
	if !j.End() {
		t.Fatal("chained tx did not commit")
	}
	for _, c := range cells {
		if got := f.read8(c); got != 7 {
			t.Fatalf("cell %#x = %d", c, got)
		}
	}
	// Continuation pages were returned to the arena.
	if got := f.heap.b.InUse(); got != inUse {
		t.Fatalf("pages leaked: in-use %d -> %d", inUse, got)
	}

	// And the commit survives a crash.
	f.reopen(t)
	for _, c := range cells {
		if got := f.read8(c); got != 7 {
			t.Fatalf("after crash: cell %#x = %d", c, got)
		}
	}
}

func TestChainedTransactionAborts(t *testing.T) {
	f := chainFixture(t)
	j := f.js[0]
	cells := makeCells(t, f, 40)
	inUse := f.heap.b.InUse()

	j.Begin()
	bigTx(t, f, j, cells, 9)
	j.MarkAborted()
	if j.End() {
		t.Fatal("aborted tx reported committed")
	}
	for _, c := range cells {
		if got := f.read8(c); got != 0 {
			t.Fatalf("abort leaked into cell %#x: %d", c, got)
		}
	}
	if got := f.heap.b.InUse(); got != inUse {
		t.Fatalf("pages leaked after abort: %d -> %d", inUse, got)
	}
}

func TestChainedCrashRecovery(t *testing.T) {
	f := chainFixture(t)
	j := f.js[0]
	cells := makeCells(t, f, 40)
	inUse := f.heap.b.InUse()

	j.Begin()
	bigTx(t, f, j, cells, 11)
	// Crash without End: recovery must undo everything across all pages
	// and reclaim the pages themselves.
	rb, _ := f.reopen(t)
	if rb != 1 {
		t.Fatalf("rolled back %d, want 1", rb)
	}
	for _, c := range cells {
		if got := f.read8(c); got != 0 {
			t.Fatalf("recovery missed cell %#x: %d", c, got)
		}
	}
	if got := f.heap.b.InUse(); got != inUse {
		t.Fatalf("pages leaked after recovery: %d -> %d", inUse, got)
	}
	if err := f.heap.b.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestChainedCrashSweep cuts power at every device operation during a
// page-chaining transaction: the mutations must be all-or-nothing and the
// chained pages must never leak, at every crash point.
func TestChainedCrashSweep(t *testing.T) {
	for crashAt := 1; ; crashAt += 13 {
		f := chainFixture(t)
		j := f.js[0]
		cells := makeCells(t, f, 24)
		inUse := f.heap.b.InUse()

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
			bigTx(t, f, j, cells, 13)
			j.End()
			finished = true
		}()
		f.dev.SetFaultInjector(nil)
		sweepDone := finished && crashAt > count

		f.reopen(t)
		first := f.read8(cells[0])
		for _, c := range cells {
			if got := f.read8(c); got != first {
				t.Fatalf("crashAt=%d: torn chained tx: cell %#x = %d, first = %d", crashAt, c, got, first)
			}
		}
		if got := f.heap.b.InUse(); got != inUse {
			t.Fatalf("crashAt=%d: pages leaked: %d -> %d", crashAt, inUse, got)
		}
		if err := f.heap.b.CheckConsistency(); err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		if sweepDone {
			return
		}
		if crashAt > 1_000_000 {
			t.Fatal("sweep did not terminate")
		}
	}
}

// TestHugeDataLogChunksAndRollsBack: a snapshot far larger than any
// journal segment is chunked across chained pages; an abort must restore
// every byte.
func TestHugeDataLogChunksAndRollsBack(t *testing.T) {
	f := chainFixture(t)
	j := f.js[0]
	const bigSize = 256 << 10
	big, err := f.heap.AllocEx(0, bigSize, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < bigSize; i += 8 {
		f.write8(big+i, i)
	}
	f.dev.Persist(big, bigSize)

	j.Begin()
	if err := j.DataLog(big, bigSize); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < bigSize; i += 8 {
		f.write8(big+i, 0xDEAD)
	}
	j.MarkAborted()
	j.End()
	for i := uint64(0); i < bigSize; i += 8 {
		if got := f.read8(big + i); got != i {
			t.Fatalf("byte %d not restored: %d", i, got)
		}
	}
}

// TestTrulyOversizedEntryRejected: exhausting the arena while chaining
// surfaces as ErrTxTooLarge rather than corruption.
func TestTrulyOversizedEntryRejected(t *testing.T) {
	f := chainFixture(t)
	j := f.js[0]
	// Claim nearly the whole heap so page chaining runs out of space.
	big, err := f.heap.AllocEx(0, f.heapSize/2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.heap.AllocEx(0, f.heapSize/4, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.heap.AllocEx(0, f.heapSize/8, nil, nil); err != nil {
		t.Fatal(err)
	}
	j.Begin()
	defer func() {
		j.MarkAborted()
		j.End()
	}()
	err = j.DataLog(big, f.heapSize/2)
	if !errors.Is(err, ErrTxTooLarge) {
		t.Fatalf("arena exhaustion returned %v, want ErrTxTooLarge", err)
	}
}
