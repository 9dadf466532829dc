package pmem

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func newTracked(t *testing.T, size int) *Device {
	t.Helper()
	return New(size, Options{TrackCrash: true})
}

func TestWriteIsVisibleImmediately(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(100, []byte{1, 2, 3})
	got := d.Read(100, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("read back %v, want [1 2 3]", got)
	}
}

func TestUnflushedWriteLostOnCrash(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{0xAA})
	d.Crash()
	if got := d.Read(0, 1)[0]; got != 0 {
		t.Fatalf("unflushed write survived crash: %#x", got)
	}
}

func TestFlushedButUnfencedWriteLostOnCrash(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{0xAA})
	d.Flush(0, 1)
	d.Crash()
	if got := d.Read(0, 1)[0]; got != 0 {
		t.Fatalf("unfenced write survived crash: %#x", got)
	}
}

func TestPersistedWriteSurvivesCrash(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{0xAA})
	d.Persist(0, 1)
	d.Crash()
	if got := d.Read(0, 1)[0]; got != 0xAA {
		t.Fatalf("persisted write lost on crash: %#x", got)
	}
}

func TestPersistCoversWholeRange(t *testing.T) {
	d := newTracked(t, 4096)
	// A range spanning three cache lines.
	data := make([]byte, 3*CacheLineSize)
	for i := range data {
		data[i] = byte(i)
	}
	d.Write(32, data)
	d.Persist(32, uint64(len(data)))
	d.Crash()
	got := d.Read(32, uint64(len(data)))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], data[i])
		}
	}
}

func TestDirectStoresNeedMarkDirty(t *testing.T) {
	d := newTracked(t, 4096)
	d.Bytes()[10] = 0x42
	d.MarkDirty(10, 1)
	d.Persist(10, 1)
	d.Crash()
	if got := d.Read(10, 1)[0]; got != 0x42 {
		t.Fatalf("marked direct store lost: %#x", got)
	}
}

func TestLaterWriteToFlushedLineNotDurable(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{1})
	d.Flush(0, 1)
	d.Write(0, []byte{2}) // re-dirties after flush, before fence
	d.Fence()
	d.Crash()
	// The flushed value 1 is durable; the post-flush store of 2 is not.
	if got := d.Read(0, 1)[0]; got != 1 {
		t.Fatalf("got %d, want the flushed value 1", got)
	}
}

func TestCrashIsRepeatable(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{7})
	d.Persist(0, 1)
	d.Write(0, []byte{9})
	d.Crash()
	if got := d.Read(0, 1)[0]; got != 7 {
		t.Fatalf("after first crash: %d", got)
	}
	d.Write(0, []byte{9})
	d.Crash()
	if got := d.Read(0, 1)[0]; got != 7 {
		t.Fatalf("after second crash: %d", got)
	}
}

func TestStatsCount(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{1})
	d.Flush(0, 1)
	d.Fence()
	if n := d.Stats().Writes; n != 1 {
		t.Errorf("writes = %d, want 1", n)
	}
	if n := d.Stats().Flushes; n != 1 {
		t.Errorf("flushes = %d, want 1", n)
	}
	if n := d.Stats().Fences; n != 1 {
		t.Errorf("fences = %d, want 1", n)
	}
}

func TestFlushChargesPerLine(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, make([]byte, 4*CacheLineSize))
	d.Flush(0, 4*CacheLineSize)
	if n := d.Stats().Flushes; n != 4 {
		t.Errorf("flushes = %d, want 4", n)
	}
}

func TestFaultInjectorFiresAndCrashRecovers(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{5})
	d.Persist(0, 1)

	fired := false
	d.SetFaultInjector(func(op Op) bool { return op == OpFlush })
	func() {
		defer func() {
			if r := recover(); r != ErrInjectedCrash {
				t.Fatalf("recovered %v, want ErrInjectedCrash", r)
			}
			fired = true
		}()
		d.Write(0, []byte{6})
		d.Flush(0, 1)
	}()
	if !fired {
		t.Fatal("injector did not fire")
	}
	d.SetFaultInjector(nil)
	d.Crash()
	if got := d.Read(0, 1)[0]; got != 5 {
		t.Fatalf("post-crash value %d, want 5", got)
	}
}

func TestFilePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool")

	d, err := OpenFile(path, 4096, Options{TrackCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	d.Write(64, []byte("hello"))
	d.Persist(64, 5)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenFile(path, 4096, Options{TrackCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(d2.Read(64, 5)); got != "hello" {
		t.Fatalf("reloaded %q, want %q", got, "hello")
	}
}

func TestFileSizeMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool")
	if err := os.WriteFile(path, make([]byte, 128), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 4096, Options{}); err == nil {
		t.Fatal("size mismatch not rejected")
	}
}

func TestSyncWritesOnlyDurableState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool")
	d, err := OpenFile(path, 4096, Options{TrackCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	d.Write(0, []byte{1})
	d.Persist(0, 1)
	d.Write(1, []byte{2}) // never flushed
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 1 {
		t.Errorf("durable byte missing from file")
	}
	if data[1] != 0 {
		t.Errorf("unflushed byte leaked to file: %d", data[1])
	}
}

func TestCrashWithEvictionPersistsSubset(t *testing.T) {
	// Whatever the seed, the surviving state must be: persisted data intact,
	// and each dirty line either old or new, never torn within our writes.
	for seed := int64(0); seed < 8; seed++ {
		d := newTracked(t, 4096)
		d.Write(0, []byte{1})
		d.Persist(0, 1)
		d.Write(CacheLineSize, []byte{9}) // dirty, maybe evicted
		d.CrashWithEviction(seed)
		if got := d.Read(0, 1)[0]; got != 1 {
			t.Fatalf("seed %d: persisted byte lost", seed)
		}
		if got := d.Read(CacheLineSize, 1)[0]; got != 0 && got != 9 {
			t.Fatalf("seed %d: torn value %d", seed, got)
		}
	}
}

func TestBoundsPanics(t *testing.T) {
	d := newTracked(t, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	d.Write(4095, []byte{1, 2})
}

func TestOpString(t *testing.T) {
	if OpWrite.String() != "write" || OpFlush.String() != "flush" || OpFence.String() != "fence" {
		t.Fatal("unexpected Op strings")
	}
	if Op(99).String() == "" {
		t.Fatal("unknown op should still format")
	}
}

// Property: any sequence of persisted writes survives a crash byte-for-byte.
func TestPersistedWritesAlwaysSurvive(t *testing.T) {
	f := func(writes []struct {
		Off  uint16
		Data []byte
	}) bool {
		d := New(1<<16, Options{TrackCrash: true})
		want := make([]byte, 1<<16)
		for _, w := range writes {
			if len(w.Data) == 0 {
				continue
			}
			data := w.Data
			if int(w.Off)+len(data) > len(want) {
				data = data[:len(want)-int(w.Off)]
			}
			if len(data) == 0 {
				continue
			}
			d.Write(uint64(w.Off), data)
			d.Persist(uint64(w.Off), uint64(len(data)))
			copy(want[w.Off:], data)
		}
		d.Crash()
		got := d.Bytes()
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedLineFlushIsDurable has eight goroutines each own one 8-byte
// word of ONE cache line and loop Write, Flush, Fence: once a word's own
// fence has returned, that word must be in the durable image, whatever
// the neighbours' flushes of the same line were doing. (Clearing the
// dirty bit before staging the copy lost this: a second flusher saw the
// bit clear and fenced before the first had staged, or a stale copy was
// published over a newer one.)
func TestSharedLineFlushIsDurable(t *testing.T) {
	d := newTracked(t, 4*CacheLineSize)
	const line = 2 * CacheLineSize
	rounds := 4000
	if testing.Short() {
		rounds = 500
	}
	var wg sync.WaitGroup
	for g := uint64(0); g < CacheLineSize/WordSize; g++ {
		wg.Add(1)
		go func(off uint64) {
			defer wg.Done()
			var w [WordSize]byte
			for i := 1; i <= rounds; i++ {
				val := off<<32 | uint64(i)
				binary.LittleEndian.PutUint64(w[:], val)
				d.Write(off, w[:])
				d.Flush(off, WordSize)
				d.Fence()
				if got := binary.LittleEndian.Uint64(d.DurableSnapshot()[off:]); got != val {
					t.Errorf("word %#x: wrote, flushed and fenced %#x, durable image holds %#x", off, val, got)
					return
				}
			}
		}(line + g*WordSize)
	}
	wg.Wait()
}
