package alloc

import (
	"math/rand"
	"strings"
	"testing"

	"corundum/internal/pmem"
)

func TestChecksumsHoldAcrossAllocFree(t *testing.T) {
	dev, b := newArena(t)
	if err, _ := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap); err != nil {
		t.Fatalf("fresh arena: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	type block struct{ off, size uint64 }
	var live []block
	for i := 0; i < 200; i++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(live))
			if err := b.Free(live[k].off, live[k].size); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		} else {
			size := uint64(1 + rng.Intn(4096))
			off, err := b.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, block{off, size})
		}
		if err, _ := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap); err != nil {
			t.Fatalf("after op %d: %v", i, err)
		}
	}
}

// The staged-checksum discipline must hold at EVERY crash point of an
// operation, including torn ones: after replay, the image verifies.
func TestChecksumsHoldAtEveryCrashPoint(t *testing.T) {
	meta := MetaSize(testHeap)
	for point := uint64(1); ; point++ {
		dev := pmem.New(int(meta)+testHeap, pmem.Options{TrackCrash: true})
		b := Format(dev, 0, meta, testHeap)
		off, err := b.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		base := dev.OpCount()
		dev.CrashAt(base + point)
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
			if err := b.Free(off, 100); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Alloc(64); err != nil {
				t.Fatal(err)
			}
		}()
		if !crashed {
			break // the whole sequence completed; every point is covered
		}
		dev.CrashTorn(int64(point)) // word-granularity tearing of the cut
		b2 := Open(dev, 0, meta, testHeap)
		if err, _ := VerifyChecksums(dev, 0, meta, testHeap); err != nil {
			t.Fatalf("crash point %d: %v", point, err)
		}
		if err := b2.CheckConsistency(); err != nil {
			t.Fatalf("crash point %d: %v", point, err)
		}
	}
}

func TestVerifyChecksumsDetectsMapCorruption(t *testing.T) {
	dev, b := newArena(t)
	if _, err := b.Alloc(64); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the order map of a durably idle arena.
	dev.InjectBitFlip(b.mapOff+3, 0)
	err, _ := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap)
	if err == nil {
		t.Fatal("flipped map byte not detected")
	}
	if !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("error does not name the chunk: %v", err)
	}
}

func TestVerifyChecksumsDetectsHeadsCorruption(t *testing.T) {
	dev, b := newArena(t)
	dev.InjectBitFlip(b.headsOff+8*MinOrder, 5)
	if err, _ := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap); err == nil {
		t.Fatal("flipped free-head word not detected")
	}
}

func TestScrubChecksumsRepairsCorruptSlot(t *testing.T) {
	dev, b := newArena(t)
	// Corrupt the checksum slot itself: the structure is sound, so a
	// repairing scrub rewrites the slot instead of condemning the arena.
	dev.InjectBitFlip(b.headsCRCSlot(), 2)
	if err, _ := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap); err == nil {
		t.Fatal("corrupt checksum slot not detected")
	}
	checksums, structure := b.ScrubChecksums()
	if structure != nil {
		t.Fatalf("repairing scrub condemned a sound arena: %v", structure)
	}
	if checksums == nil {
		t.Fatal("scrub did not report the mismatch it repaired")
	}
	if err, _ := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap); err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

// TestScrubChecksumsRefusesFlippedAllocatedOrder flips bit 0 of an
// allocated 64-byte block's order-map byte (order 6 → 7). The free lists
// still check out, so only the map's tiling tells the flip from a stale
// checksum: verification and the scrub must both call it structural
// damage, and the scrub must leave the checksums alone — for the block
// whose raised order would swallow its allocated buddy and for the buddy,
// whose raised order is misaligned.
func TestScrubChecksumsRefusesFlippedAllocatedOrder(t *testing.T) {
	for _, which := range []string{"swallows its buddy", "misaligned"} {
		t.Run(which, func(t *testing.T) {
			dev, b := newArena(t)
			b.SetSlabParams(0, 0) // plain buddy splits: the two blocks are buddies
			lo, err := b.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			hi, err := b.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if hi != lo+64 || (lo-b.heapOff)%128 != 0 {
				t.Fatalf("blocks at %#x and %#x are not an aligned buddy pair", lo, hi)
			}
			off := lo
			if which == "misaligned" {
				off = hi
			}
			dev.InjectBitFlip(b.granuleMapOff(off), 0)
			sum, structure := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap)
			if sum == nil {
				t.Fatal("flipped map byte not detected")
			}
			if structure == nil {
				t.Fatalf("flipped map byte passed as a stale checksum (%v)", sum)
			}
			if _, structure := b.ScrubChecksums(); structure == nil {
				t.Fatal("scrub called the flipped map byte a stale checksum")
			}
			if sum, _ := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap); sum == nil {
				t.Fatal("scrub rewrote the checksums over the flipped map byte")
			}
		})
	}
}
