package alloc

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"corundum/internal/pmem"
)

const testHeap = 1 << 20

func newArena(t *testing.T) (*pmem.Device, *Buddy) {
	t.Helper()
	meta := MetaSize(testHeap)
	dev := pmem.New(int(meta)+testHeap, pmem.Options{TrackCrash: true})
	b := Format(dev, 0, meta, testHeap)
	return dev, b
}

func TestFormatYieldsFullyFreeArena(t *testing.T) {
	_, b := newArena(t)
	if got := b.FreeBytes(); got != testHeap {
		t.Fatalf("free bytes after format = %d, want %d", got, testHeap)
	}
	if err := b.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	_, b := newArena(t)
	off, err := b.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if off%Granule != 0 {
		t.Errorf("offset %#x not granule aligned", off)
	}
	if got := b.InUse(); got != BlockSize(100) {
		t.Errorf("in use = %d, want %d", got, BlockSize(100))
	}
	if err := b.Free(off, 100); err != nil {
		t.Fatal(err)
	}
	if got := b.FreeBytes(); got != testHeap {
		t.Fatalf("free bytes after free = %d, want %d (coalescing failed)", got, testHeap)
	}
	if err := b.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockSizeRounding(t *testing.T) {
	cases := []struct{ req, want uint64 }{
		{1, 64}, {8, 64}, {64, 64}, {65, 128}, {100, 128}, {256, 256}, {4096, 4096}, {5000, 8192},
	}
	for _, c := range cases {
		if got := BlockSize(c.req); got != c.want {
			t.Errorf("BlockSize(%d) = %d, want %d", c.req, got, c.want)
		}
	}
}

func TestDistinctAllocationsDoNotOverlap(t *testing.T) {
	_, b := newArena(t)
	type blk struct{ off, size uint64 }
	var blocks []blk
	sizes := []uint64{8, 64, 100, 256, 1000, 4096}
	for i := 0; i < 200; i++ {
		size := sizes[i%len(sizes)]
		off, err := b.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk{off, BlockSize(size)})
	}
	for i, a := range blocks {
		for j, c := range blocks {
			if i != j && a.off < c.off+c.size && c.off < a.off+a.size {
				t.Fatalf("blocks %d and %d overlap: %#x+%d vs %#x+%d", i, j, a.off, a.size, c.off, c.size)
			}
		}
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	_, b := newArena(t)
	off, err := b.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Free(off, 64); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(off, 64); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free returned %v, want ErrBadFree", err)
	}
}

func TestFreeWithWrongSizeDetected(t *testing.T) {
	_, b := newArena(t)
	off, err := b.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Free(off, 4096); !errors.Is(err, ErrBadFree) {
		t.Fatalf("wrong-size free returned %v, want ErrBadFree", err)
	}
}

func TestFreeOfInteriorPointerDetected(t *testing.T) {
	_, b := newArena(t)
	off, err := b.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Free(off+64, 64); !errors.Is(err, ErrBadFree) {
		t.Fatalf("interior free returned %v, want ErrBadFree", err)
	}
}

func TestOutOfMemory(t *testing.T) {
	meta := MetaSize(1 << 12)
	dev := pmem.New(int(meta)+(1<<12), pmem.Options{})
	b := Format(dev, 0, meta, 1<<12)
	if _, err := b.Alloc(1 << 13); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized alloc returned %v, want ErrTooLarge", err)
	}
	var got []uint64
	for {
		off, err := b.Alloc(Granule)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("exhaustion returned %v, want ErrOutOfMemory", err)
			}
			break
		}
		got = append(got, off)
	}
	if len(got) != (1<<12)/Granule {
		t.Fatalf("carved %d granules, want %d", len(got), (1<<12)/Granule)
	}
}

func TestSplitAndCoalesceSymmetry(t *testing.T) {
	_, b := newArena(t)
	var offs []uint64
	for i := 0; i < 64; i++ {
		off, err := b.Alloc(Granule)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	// Free in reverse order; everything must coalesce back.
	for i := len(offs) - 1; i >= 0; i-- {
		if err := b.Free(offs[i], Granule); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.FreeBytes(); got != testHeap {
		t.Fatalf("free bytes = %d, want %d", got, testHeap)
	}
	if err := b.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicInitWritesPayload(t *testing.T) {
	dev, b := newArena(t)
	payload := []byte("persistent payload")
	off, err := b.AtomicInit(payload)
	if err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	b2 := Open(dev, 0, MetaSize(testHeap), testHeap)
	got := make([]byte, len(payload))
	dev.LoadBytes(off, got)
	if string(got) != string(payload) {
		t.Fatalf("payload after crash = %q, want %q", got, payload)
	}
	if err := b2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The allocation itself must be durable: freeing it must succeed.
	if err := b2.Free(off, uint64(len(payload))); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRebuildsAccounting(t *testing.T) {
	dev, b := newArena(t)
	if _, err := b.Alloc(128); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Alloc(4096); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	b2 := Open(dev, 0, MetaSize(testHeap), testHeap)
	want := BlockSize(128) + BlockSize(4096)
	if got := b2.InUse(); got != want {
		t.Fatalf("in use after reopen = %d, want %d", got, want)
	}
}

func TestNonPowerOfTwoHeapCarving(t *testing.T) {
	heap := uint64(3 * 1024) // 2K + 1K blocks
	meta := MetaSize(heap)
	dev := pmem.New(int(meta)+int(heap), pmem.Options{})
	b := Format(dev, 0, meta, heap)
	if got := b.FreeBytes(); got != heap {
		t.Fatalf("free bytes = %d, want %d", got, heap)
	}
	if err := b.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashAtomicity injects a crash at every Nth device operation during a
// workload of allocs and frees, and verifies that the recovered allocator
// is always structurally consistent and never loses or duplicates space.
func TestCrashAtomicity(t *testing.T) {
	for crashAt := 1; crashAt < 120; crashAt += 3 {
		dev, b := newArena(t)
		var count int
		dev.SetFaultInjector(func(op pmem.Op) bool {
			count++
			return count == crashAt
		})

		live := make(map[uint64]uint64) // off -> size, confirmed committed
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
			rng := rand.New(rand.NewSource(int64(crashAt)))
			var offs []uint64
			sizes := make(map[uint64]uint64)
			for i := 0; i < 30; i++ {
				if len(offs) > 0 && rng.Intn(3) == 0 {
					k := rng.Intn(len(offs))
					off := offs[k]
					if err := b.Free(off, sizes[off]); err != nil {
						t.Error(err)
					}
					delete(live, off)
					delete(sizes, off)
					offs = append(offs[:k], offs[k+1:]...)
				} else {
					size := uint64(8 << rng.Intn(8))
					off, err := b.Alloc(size)
					if err != nil {
						t.Error(err)
					}
					live[off] = size
					sizes[off] = size
					offs = append(offs, off)
				}
			}
		}()
		dev.SetFaultInjector(nil)
		if !crashed {
			continue // workload finished before the crash point
		}
		dev.Crash()
		b2 := Open(dev, 0, MetaSize(testHeap), testHeap)
		if err := b2.CheckConsistency(); err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		// Space conservation: free + in-use == heap. The in-flight op may or
		// may not have landed, but nothing may be half-applied.
		if free := b2.FreeBytes(); free+b2.InUse() != testHeap {
			t.Fatalf("crashAt=%d: free %d + inuse %d != heap %d", crashAt, free, b2.InUse(), testHeap)
		}
	}
}

// TestRandomWorkloadProperty runs long random alloc/free traces and checks
// structural invariants and exact space accounting throughout.
func TestRandomWorkloadProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		_, b := newArena(t)
		rng := rand.New(rand.NewSource(seed))
		type blk struct{ off, size uint64 }
		var blocks []blk
		var inUse uint64
		for step := 0; step < 500; step++ {
			if len(blocks) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(blocks))
				if err := b.Free(blocks[k].off, blocks[k].size); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				inUse -= BlockSize(blocks[k].size)
				blocks = append(blocks[:k], blocks[k+1:]...)
			} else {
				size := uint64(1 + rng.Intn(8192))
				off, err := b.Alloc(size)
				if errors.Is(err, ErrOutOfMemory) {
					continue
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				blocks = append(blocks, blk{off, size})
				inUse += BlockSize(size)
			}
			if b.InUse() != inUse {
				t.Fatalf("seed %d step %d: accounting drift: %d vs %d", seed, step, b.InUse(), inUse)
			}
		}
		if err := b.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if b.FreeBytes()+inUse != testHeap {
			t.Fatalf("seed %d: space leak: free %d + inuse %d != %d", seed, b.FreeBytes(), inUse, testHeap)
		}
	}
}

// TestSmallPayloadAllocFreeCycles covers the payload-staging path for
// payloads that fit entirely in a free block's link words (≤16 bytes):
// those bytes travel through the redo batch rather than being written
// directly, and must land intact across alloc/free/realloc cycles.
func TestSmallPayloadAllocFreeCycles(t *testing.T) {
	meta := MetaSize(1 << 20)
	dev := pmem.New(int(meta)+(1<<20), pmem.Options{TrackCrash: true})
	b := Format(dev, 0, meta, 1<<20)
	var live []uint64
	for i := 0; i < 300; i++ {
		var payload [16]byte
		binary.LittleEndian.PutUint64(payload[0:], uint64(i)+1)
		binary.LittleEndian.PutUint64(payload[8:], uint64(i)+1000000)
		off, err := b.AllocEx(16, payload[:], nil)
		if err != nil {
			t.Fatal(err)
		}
		got0 := dev.Load8(off)
		got1 := dev.Load8(off + 8)
		if got0 != uint64(i)+1 || got1 != uint64(i)+1000000 {
			t.Fatalf("iter %d: payload lost: %d %d", i, got0, got1)
		}
		live = append(live, off)
		if i%3 == 2 {
			victim := live[0]
			live = live[1:]
			if err := b.Free(victim, 16); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.CheckConsistency(); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
	}
}
