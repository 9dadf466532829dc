package pool

import (
	"os"
	"path/filepath"
	"testing"

	"corundum/internal/alloc"
	"corundum/internal/journal"
	"corundum/internal/pmem"
)

// These tests judge images the way an offline checker does: FsckDevice
// first, then AttachRepair and CheckConsistency on a private copy, so
// the image under judgement is never written.

// privateCopy returns an in-memory device holding dev's durable image.
func privateCopy(dev *pmem.Device) *pmem.Device {
	c := pmem.New(dev.Size(), pmem.Options{})
	c.StoreBytes(0, dev.DurableSnapshot())
	return c
}

func TestInspectCleanPool(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.pool")
	p, err := Create(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var root uint64
	if err := p.Transaction(func(j *journal.Journal) error {
		var err error
		root, err = j.Alloc(64)
		if err != nil {
			return err
		}
		return p.SetRoot(j, root, 0xBEEF)
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dev := pmem.New(len(img), pmem.Options{})
	dev.StoreBytes(0, img)
	rep, err := FsckDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Pending {
		t.Fatalf("clean pool judged pending=%v problems=%v", rep.Pending, rep.Problems)
	}
	q, err := AttachRepair(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if q.Degraded() {
		t.Fatalf("clean pool degraded: %s", q.DegradedReason())
	}
	if q.RootOff() != root || q.RootTypeHash() != 0xBEEF {
		t.Fatalf("root %#x/%#x, want %#x/0xBEEF", q.RootOff(), q.RootTypeHash(), root)
	}
	if q.Journals() != 4 {
		t.Fatalf("journals %d, want 4", q.Journals())
	}
	if back, fwd := q.Recovery(); back != 0 || fwd != 0 {
		t.Fatalf("clean pool recovered %d back / %d forward", back, fwd)
	}
	if q.InUse() != 64 {
		t.Fatalf("in use %d, want 64", q.InUse())
	}
}

func TestInspectCrashedPoolShowsPendingJournal(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	// Crash at the second fence: the allocation batch's first fence has
	// made the journal's running word durable, but the transaction is far
	// from its commit point — robust to op-count shifts in the alloc path.
	var fences int
	dev.SetFaultInjector(func(op pmem.Op) bool {
		if op == pmem.OpFence {
			fences++
		}
		return fences == 2
	})
	func() {
		defer func() { recover() }()
		_ = p.Transaction(func(j *journal.Journal) error {
			off, err := j.Alloc(64)
			if err != nil {
				return err
			}
			return p.SetRoot(j, off, 1)
		})
	}()
	dev.SetFaultInjector(nil)
	dev.Crash()
	before := dev.DurableHash()

	rep, err := FsckDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("crashed-but-recoverable pool reported corruption: %v", rep.Problems)
	}
	if !rep.Pending {
		t.Fatal("crashed pool shows no pending journal")
	}
	q, err := AttachRepair(privateCopy(dev))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if back, fwd := q.Recovery(); back != 1 || fwd != 0 {
		t.Fatalf("recovery rolled %d back / %d forward, want 1 / 0", back, fwd)
	}
	// Judging must not have modified the image: recovery still works.
	if dev.DurableHash() != before {
		t.Fatal("judging the crashed image changed it")
	}
	if _, err := Attach(dev); err != nil {
		t.Fatal(err)
	}
}

func TestInspectDetectsCorruption(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	// Smash an arena's free-list head with garbage and persist it.
	g, _ := computeGeometry(testConfig().Size, testConfig().Journals, testConfig().JournalCap)
	// Locate arena 0's first nonzero word (the redo-log area leading the
	// metadata is all zeros at rest, so this is a free-list head) and
	// corrupt it.
	meta := g.metaOff
	for off := meta; off < meta+alloc.MetaSize(g.arenaHeap); off += 8 {
		if dev.Load8(off) != 0 {
			dev.Store8(off, 0xDEADBEEF)
			dev.Persist(off, 8)
			break
		}
	}
	rep, err := FsckDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corrupted free list not detected")
	}
	q, err := AttachRepair(privateCopy(dev))
	if err != nil {
		t.Fatal(err)
	}
	if !q.Degraded() {
		t.Fatal("corrupted free list opened writable")
	}
}

func TestInspectRejectsGarbage(t *testing.T) {
	dev := pmem.New(1<<16, pmem.Options{})
	if _, err := FsckDevice(dev); err == nil {
		t.Fatal("garbage image accepted by FsckDevice")
	}
	if _, err := AttachRepair(dev); err == nil {
		t.Fatal("garbage image accepted by AttachRepair")
	}
}
