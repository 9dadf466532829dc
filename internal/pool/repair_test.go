package pool

import (
	"errors"
	"testing"

	"corundum/internal/alloc"
	"corundum/internal/journal"
	"corundum/internal/pmem"
)

// corruptFreeHead smashes arena 0's first nonzero metadata word (a free
// list head — the leading redo-log area is all zeros at rest) so the
// structure itself, not just a checksum, is damaged.
func corruptFreeHead(t testing.TB, dev *pmem.Device) {
	t.Helper()
	g, err := computeGeometryOf(dev)
	if err != nil {
		t.Fatal(err)
	}
	for off := g.metaOff; off < g.metaOff+alloc.MetaSize(g.arenaHeap); off += 8 {
		if dev.Load8(off) != 0 {
			dev.Store8(off, 0xDEADBEEF)
			dev.Persist(off, 8)
			return
		}
	}
	t.Fatal("no nonzero metadata word found")
}

func TestHeaderMirrorSurvivesDamage(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	gen := p.Generation()
	// Damage static header copy A at rest: the mirror must carry Attach.
	dev.InjectBitFlip(fSize, 3)
	p2, err := Attach(dev)
	if err != nil {
		t.Fatalf("attach with damaged header copy A: %v", err)
	}
	if p2.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", p2.Generation(), gen+1)
	}
	// Attach rewrites both copies: the image must be whole again.
	if _, goodA, goodB, err := headerOf(dev); err != nil || !goodA || !goodB {
		t.Fatalf("header not repaired after attach: %v %v %v", goodA, goodB, err)
	}
}

func TestHeaderBothCopiesDamagedRefused(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	dev.InjectBitFlip(hdrCopyAOff+fSize, 1)
	dev.InjectBitFlip(hdrCopyBOff+fSize, 1)
	if _, err := Attach(dev); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("attach with both header copies damaged: %v, want ErrCorrupt", err)
	}
}

func TestRootSlotMirror(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var root uint64
	err = p.Transaction(func(j *journal.Journal) error {
		off, err := p.AllocEx(0, 64, nil, nil)
		if err != nil {
			return err
		}
		root = off
		return p.SetRoot(j, off, 42)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Damage slot A: reads must fall back to the mirror.
	p.Device().InjectBitFlip(rootSlotAOff, 0)
	if got := p.RootOff(); got != root {
		t.Fatalf("RootOff with damaged slot A = %#x, want %#x", got, root)
	}
	if got := p.RootTypeHash(); got != 42 {
		t.Fatalf("RootTypeHash = %d, want 42", got)
	}
	// A scrub repairs the damaged slot in place.
	rep, err := p.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Repairs == 0 {
		t.Fatal("scrub performed no repairs")
	}
	if _, _, ok := rootSlot(p.Device(), rootSlotAOff); !ok {
		t.Fatal("slot A still damaged after scrub")
	}
}

func TestAttachRepairFixesChecksumSlot(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	crcOff, _ := p.arenas[0].ChecksumRegion()
	dev.InjectBitFlip(crcOff, 2)
	if err := Fsck(dev); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fsck on damaged checksum slot: %v, want ErrCorrupt", err)
	}
	p2, err := AttachRepair(dev)
	if err != nil {
		t.Fatalf("AttachRepair: %v", err)
	}
	if p2.Degraded() {
		t.Fatalf("repairable damage degraded the pool: %s", p2.DegradedReason())
	}
	if err := Fsck(dev); err != nil {
		t.Fatalf("image not clean after repair: %v", err)
	}
}

// TestFlippedOrderByteIsDamage flips bit 0 of an allocated 64-byte
// block's order-map byte (order 6 → 7) at rest. The free lists still
// check out and only the map chunk's checksum mismatches, yet the
// checksum is not what is stale: fsck must call it unrepairable arena
// damage, and AttachRepair must open the pool degraded instead of
// rewriting the checksum over the flipped byte.
func TestFlippedOrderByteIsDamage(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var off uint64
	err = p.Transaction(func(*journal.Journal) error {
		off, err = p.AllocEx(0, 64, nil, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The order map follows the free-list heads: one byte per granule.
	heads, n := alloc.FreeHeadsRange(p.ArenaMetaRange(0).Off)
	dev := p.Device()
	dev.InjectBitFlip(heads+n+(off-p.geo.heapOff)/alloc.Granule, 0)

	rep, err := FsckDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for _, pr := range rep.Problems {
		if pr.Area == AreaBitmap && pr.Index == 0 {
			if pr.Repairable {
				t.Fatalf("fsck calls the flipped order byte repairable: %s", pr)
			}
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("fsck did not flag arena 0: %+v", rep.Problems)
	}
	p2, err := AttachRepair(dev)
	if err != nil {
		t.Fatalf("AttachRepair must degrade, not refuse: %v", err)
	}
	if !p2.Degraded() {
		t.Fatal("flipped order byte left the pool writable")
	}
}

func TestAttachRepairDegradesOnStructuralDamage(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	corruptFreeHead(t, dev)
	p2, err := AttachRepair(dev)
	if err != nil {
		t.Fatalf("AttachRepair must degrade, not refuse: %v", err)
	}
	if !p2.Degraded() {
		t.Fatal("pool not degraded")
	}
	if err := p2.Writable(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Writable = %v, want ErrReadOnly", err)
	}
	if _, err := p2.AllocEx(0, 64, nil, nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("AllocEx in degraded mode = %v, want ErrReadOnly", err)
	}
	q := p2.Quarantine()
	if len(q) == 0 {
		t.Fatal("no quarantined ranges")
	}
	// The condemned arena's heap span must be named.
	g := p2.geo
	found := false
	for _, r := range q {
		if r.Off == g.heapOff && r.Len == g.arenaHeap {
			found = true
		}
	}
	if !found {
		t.Fatalf("arena 0 heap span not quarantined: %+v", q)
	}
	// Reads still work: the root slots are intact.
	if got := p2.RootOff(); got != 0 {
		t.Fatalf("RootOff = %#x, want 0", got)
	}
}

func TestAttachRepairRefusesPendingPlusCorruption(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	g := p.geo
	// Journal 0 pending recovery, journal 1 with an impossible state
	// byte: recovery cannot be trusted over damaged journal machinery.
	dev.Write(g.bufOff, []byte{1})
	dev.Persist(g.bufOff, 1)
	dev.Write(g.bufOff+g.bufCap, []byte{5})
	dev.Persist(g.bufOff+g.bufCap, 1)
	if _, err := AttachRepair(dev); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("AttachRepair = %v, want ErrCorrupt", err)
	}
}

func TestScrubDegradesOnUnrepairableDamage(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	corruptFreeHead(t, p.Device())
	rep, err := p.Scrub()
	if err == nil {
		t.Fatal("scrub of structurally damaged arena returned nil")
	}
	if !p.Degraded() {
		t.Fatal("pool not degraded after failed scrub")
	}
	if len(rep.Quarantined) == 0 {
		t.Fatal("no ranges quarantined")
	}
	// A second scrub re-finds the damage but must not duplicate the
	// quarantine entries.
	before := len(p.Quarantine())
	if _, err := p.Scrub(); err == nil {
		t.Fatal("second scrub returned nil")
	}
	if after := len(p.Quarantine()); after != before {
		t.Fatalf("quarantine grew from %d to %d on re-scrub", before, after)
	}
}

func TestScrubCleanPoolIsQuiet(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Scrub()
	if err != nil {
		t.Fatalf("scrub of clean pool: %v", err)
	}
	if rep.Repairs != 0 || len(rep.Problems) != 0 {
		t.Fatalf("clean pool scrub reported %+v", rep)
	}
	if p.Degraded() {
		t.Fatal("clean pool degraded")
	}
}

func TestDegradedPoolRefusesSetRoot(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Degrade("test")
	err = p.Transaction(func(j *journal.Journal) error {
		return p.SetRoot(j, 4096, 1)
	})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("SetRoot in degraded mode = %v, want ErrReadOnly", err)
	}
}
