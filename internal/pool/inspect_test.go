package pool

import (
	"path/filepath"
	"testing"

	"corundum/internal/alloc"
	"corundum/internal/journal"
	"corundum/internal/pmem"
)

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

	r, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) != 0 {
		t.Fatalf("clean pool reported errors: %v", r.Errors)
	}
	if r.RootOff != root || r.RootType != 0xBEEF {
		t.Fatalf("root %#x/%#x, want %#x/0xBEEF", r.RootOff, r.RootType, root)
	}
	if len(r.Arenas) != 4 || len(r.JournalInfo) != 4 {
		t.Fatalf("arenas %d journals %d", len(r.Arenas), len(r.JournalInfo))
	}
	var inUse uint64
	for _, a := range r.Arenas {
		inUse += a.InUse
		if a.Err != "" {
			t.Errorf("arena %d: %s", a.Index, a.Err)
		}
	}
	if inUse != 64 {
		t.Fatalf("in use %d, want 64", inUse)
	}
	for _, j := range r.JournalInfo {
		if j.State != "idle" {
			t.Errorf("journal %d state %q", j.Index, j.State)
		}
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

	r, err := InspectDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) != 0 {
		t.Fatalf("crashed-but-recoverable pool reported corruption: %v", r.Errors)
	}
	pending := 0
	for _, j := range r.JournalInfo {
		if j.State != "idle" {
			pending++
		}
	}
	if pending != 1 {
		t.Fatalf("pending journals = %d, want 1", pending)
	}
	// Inspection must not have modified the image: recovery still works.
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
	r, err := InspectDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) == 0 {
		t.Fatal("corrupted free list not detected")
	}
}

func TestInspectRejectsGarbage(t *testing.T) {
	dev := pmem.New(1<<16, pmem.Options{})
	if _, err := InspectDevice(dev); err == nil {
		t.Fatal("garbage image accepted")
	}
}
