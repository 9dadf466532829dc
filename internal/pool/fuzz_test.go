package pool

import (
	"encoding/binary"
	"testing"

	"corundum/internal/journal"
	"corundum/internal/pmem"
)

// fuzzImage runs a small script on a fresh pool, two allocations with a
// root set beside the second and a free of the first, so every structure
// holds live state. It cuts the power at the script's cut-th fence (0:
// never) and returns the durable image, or nil when the script ended
// before the cut.
func fuzzImage(t testing.TB, cut int) []byte {
	t.Helper()
	p, err := Create("", Config{Size: 256 << 10, Journals: 2, JournalCap: 4 << 10, Mem: pmem.Options{TrackCrash: true}})
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	if cut > 0 {
		fences := 0
		dev.SetFaultInjector(func(op pmem.Op) bool {
			if op == pmem.OpFence {
				fences++
			}
			return fences == cut
		})
	}
	cutOff := pmem.Contain(func() {
		var first uint64
		for i := 0; i < 2; i++ {
			if err := p.Transaction(func(j *journal.Journal) error {
				off, err := j.Alloc(64 << i)
				if err != nil {
					return err
				}
				if i == 0 {
					first = off
					return nil
				}
				return p.SetRoot(j, off, 0xBEEF)
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Transaction(func(j *journal.Journal) error { return j.DropLog(first, 64) }); err != nil {
			t.Fatal(err)
		}
	})
	dev.SetFaultInjector(nil)
	if !cutOff && cut > 0 {
		return nil
	}
	dev.Crash()
	return dev.DurableSnapshot()
}

// edits encodes the difference between base and img, which have the same
// length, as FuzzFsckDevice's edit list: a 4-byte offset and a 1-byte
// xor mask per differing byte.
func edits(base, img []byte) []byte {
	var out []byte
	for i := range base {
		if m := base[i] ^ img[i]; m != 0 {
			out = binary.LittleEndian.AppendUint32(out, uint32(i))
			out = append(out, m)
		}
	}
	return out
}

// FuzzFsckDevice: FsckDevice judges images it did not write, so on any
// input it returns a report or an error and never panics, and an image
// it does not refuse goes through AttachRepair (and the consistency
// check a writable pool gets) without panicking. An input is either raw
// bytes, padded to whole cache lines, or, when raw is empty, a list of
// byte edits to a clean pool.
//
// The seeds are the damage of fsck's verdict table, placed with this
// package's own layout, and the power cut at each of the script's fences
// (in-flight journals and committed allocator redo logs).
func FuzzFsckDevice(f *testing.F) {
	base := fuzzImage(f, 0)
	dev := pmem.New(len(base), pmem.Options{})
	dev.StoreBytes(0, base)
	p, err := Attach(dev)
	if err != nil {
		f.Fatal(err)
	}
	g := p.geo
	crcOff, _ := p.arenas[0].ChecksumRegion()
	flip := func(offs ...uint64) func(*pmem.Device) {
		return func(dev *pmem.Device) {
			for _, off := range offs {
				dev.InjectBitFlip(off, 1)
			}
		}
	}
	for _, damage := range []func(*pmem.Device){
		flip(),
		flip(rootSlotAOff),
		flip(g.dirOff),
		flip(crcOff),
		flip(hdrCopyAOff + fSize),
		flip(hdrCopyAOff+fSize, hdrCopyBOff+fSize),
		func(dev *pmem.Device) { corruptFreeHead(f, dev) },
	} {
		dev := pmem.New(len(base), pmem.Options{TrackCrash: true})
		dev.RestoreDurable(base)
		damage(dev)
		f.Add(edits(base, dev.DurableSnapshot()), []byte(nil))
	}
	for cut := 1; ; cut++ {
		img := fuzzImage(f, cut)
		if img == nil {
			break
		}
		f.Add(edits(base, img), []byte(nil))
	}
	f.Add([]byte(nil), make([]byte, 64<<10))
	f.Add([]byte(nil), base[:headerSize])

	f.Fuzz(func(t *testing.T, edits, raw []byte) {
		var img []byte
		if len(raw) > 0 {
			if len(raw) > 1<<20 {
				return
			}
			img = make([]byte, (len(raw)+pmem.CacheLineSize-1)/pmem.CacheLineSize*pmem.CacheLineSize)
			copy(img, raw)
		} else {
			img = append([]byte(nil), base...)
			for ; len(edits) >= 5; edits = edits[5:] {
				img[binary.LittleEndian.Uint32(edits)%uint32(len(img))] ^= edits[4]
			}
		}
		dev := pmem.New(len(img), pmem.Options{})
		dev.StoreBytes(0, img)
		if _, err := FsckDevice(dev); err != nil {
			return
		}
		p, err := AttachRepair(dev)
		if err != nil || p.Degraded() {
			return
		}
		_ = p.CheckConsistency()
	})
}
