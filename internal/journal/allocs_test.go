//go:build !race

// The race detector's instrumentation allocates, so the zero-allocation
// guards build without it.

package journal

import (
	"testing"

	"corundum/internal/alloc"
	"corundum/internal/pmem"
)

// TestCommitAllocs: a transaction's trip through the journal touches no
// Go heap once the journal's scratch has grown to its size — undo logs,
// slab claims and refills sealed in the allocator's redo batch, drops
// applied under Reclaim, the commit and the retire.
func TestCommitAllocs(t *testing.T) {
	const bufCap, heapSize = 1 << 16, 1 << 20
	bufOff := DirSize(1)
	allocMeta := bufOff + bufCap
	heapOff := allocMeta + alloc.MetaSize(heapSize)
	dev := pmem.New(int(heapOff+heapSize), pmem.Options{}) // no crash tracking, as served
	j := Format(dev, testHeap{alloc.Format(dev, allocMeta, heapOff, heapSize)}, 0, bufOff, bufCap, 1)[0]
	data := heapOff + heapSize/2

	overwrite := func() {
		j.Begin()
		for i := uint64(0); i < 64; i++ {
			if err := j.DataLog(data+16*i, 16); err != nil {
				t.Fatal(err)
			}
			dev.Store8(data+16*i, i)
		}
		if !j.End() {
			t.Fatal("transaction did not commit")
		}
	}
	if n := testing.AllocsPerRun(100, overwrite); n != 0 {
		t.Errorf("64 DataLogs and End: %v allocations, want 0", n)
	}

	var live []uint64 // blocks allocated and not yet dropped
	churn := func() {
		j.Begin()
		for range 8 {
			off, err := j.Alloc(32)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, off)
		}
		for _, off := range live[:4] {
			if err := j.DropLog(off, 32); err != nil {
				t.Fatal(err)
			}
		}
		live = append(live[:0], live[4:]...)
		if !j.End() {
			t.Fatal("transaction did not commit")
		}
	}
	live = make([]uint64, 0, 1024)
	if n := testing.AllocsPerRun(100, churn); n != 0 {
		t.Errorf("Alloc, DropLog and End: %v allocations, want 0", n)
	}
}
