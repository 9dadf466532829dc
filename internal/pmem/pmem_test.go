package pmem

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

// load copies n bytes at off out of the device.
func load(d *Device, off, n uint64) []byte {
	out := make([]byte, n)
	d.LoadBytes(off, out)
	return out
}

func newTracked(t *testing.T, size int) *Device {
	t.Helper()
	return New(size, Options{TrackCrash: true})
}

func TestWriteIsVisibleImmediately(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(100, []byte{1, 2, 3})
	got := load(d, 100, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("read back %v, want [1 2 3]", got)
	}
}

func TestUnflushedWriteLostOnCrash(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{0xAA})
	d.Crash()
	if got := load(d, 0, 1)[0]; got != 0 {
		t.Fatalf("unflushed write survived crash: %#x", got)
	}
}

func TestFlushedButUnfencedWriteLostOnCrash(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{0xAA})
	d.Flush(0, 1)
	d.Crash()
	if got := load(d, 0, 1)[0]; got != 0 {
		t.Fatalf("unfenced write survived crash: %#x", got)
	}
}

func TestPersistedWriteSurvivesCrash(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{0xAA})
	d.Persist(0, 1)
	d.Crash()
	if got := load(d, 0, 1)[0]; got != 0xAA {
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
	got := load(d, 32, uint64(len(data)))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], data[i])
		}
	}
}

func TestStoresMarkTheirLinesDirty(t *testing.T) {
	d := newTracked(t, 4096)
	d.StoreBytes(10, []byte{0x42})
	d.Store8(64, 0x4242)
	d.Persist(0, 128)
	d.Crash()
	if got := load(d, 10, 1)[0]; got != 0x42 {
		t.Fatalf("persisted StoreBytes lost: %#x", got)
	}
	if got := d.Load8(64); got != 0x4242 {
		t.Fatalf("persisted Store8 lost: %#x", got)
	}
}

// TestStoresAreNotOps pins that the device's stores are not injection
// points: OpCount, Stats and the op hook see only Write, Flush and Fence,
// so adding a store to a workload renumbers no crash point.
func TestStoresAreNotOps(t *testing.T) {
	d := newTracked(t, 4096)
	hooked := 0
	d.SetOpHook(func(Op, Scope, uint64) { hooked++ })
	d.Store8(0, 1)
	d.StoreBytes(8, []byte{1, 2, 3})
	d.Copy(64, 0, 16)
	if d.OpCount() != 0 || d.Stats() != (Stats{}) || hooked != 0 {
		t.Fatalf("stores counted: ops %d, stats %+v, hook %d", d.OpCount(), d.Stats(), hooked)
	}
	if got := load(d, 64, 16); !bytes.Equal(got, load(d, 0, 16)) {
		t.Fatalf("Copy landed %v", got)
	}
}

// TestStoresPanicAfterTheCut: once an injected cut has poisoned the
// device, every store panics with ErrInjectedCrash and lands nothing,
// until the reboot (Crash) restores power.
func TestStoresPanicAfterTheCut(t *testing.T) {
	d := newTracked(t, 4096)
	d.CrashAt(1)
	if !Contain(func() { d.Fence() }) {
		t.Fatal("CrashAt(1) did not cut the first op")
	}
	for name, store := range map[string]func(){
		"Store8":     func() { d.Store8(0, 7) },
		"StoreBytes": func() { d.StoreBytes(0, []byte{7}) },
		"Copy":       func() { d.Copy(0, 64, 8) },
	} {
		if !Contain(store) {
			t.Errorf("%s on a powered-off device returned", name)
		}
	}
	if got := d.Load8(0); got != 0 || len(d.TornCandidates()) != 0 {
		t.Fatalf("a store landed after the cut: word %#x, at-risk lines %v", got, d.TornCandidates())
	}
	d.Crash()
	d.Store8(0, 7) // rebooted: stores land again
}

// TestUnsafeStoresNeedFlushUnsafe: a store through UnsafeAddr is
// invisible to the device, so a plain Flush skips its line; FlushUnsafe
// marks the range first and makes it durable.
func TestUnsafeStoresNeedFlushUnsafe(t *testing.T) {
	d := newTracked(t, 4096)
	*(*byte)(d.UnsafeAddr(10)) = 0x42
	d.Persist(10, 1)
	d.Crash()
	if got := load(d, 10, 1)[0]; got != 0 {
		t.Fatalf("unmarked store persisted by a plain flush: %#x", got)
	}
	*(*byte)(d.UnsafeAddr(10)) = 0x42
	d.FlushUnsafe(10, 1)
	d.Fence()
	d.Crash()
	if got := load(d, 10, 1)[0]; got != 0x42 {
		t.Fatalf("FlushUnsafe + Fence lost the store: %#x", got)
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
	if got := load(d, 0, 1)[0]; got != 1 {
		t.Fatalf("got %d, want the flushed value 1", got)
	}
}

func TestCrashIsRepeatable(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{7})
	d.Persist(0, 1)
	d.Write(0, []byte{9})
	d.Crash()
	if got := load(d, 0, 1)[0]; got != 7 {
		t.Fatalf("after first crash: %d", got)
	}
	d.Write(0, []byte{9})
	d.Crash()
	if got := load(d, 0, 1)[0]; got != 7 {
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
	if got := load(d, 0, 1)[0]; got != 5 {
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
	if got := string(load(d2, 64, 5)); got != "hello" {
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
		if got := load(d, 0, 1)[0]; got != 1 {
			t.Fatalf("seed %d: persisted byte lost", seed)
		}
		if got := load(d, CacheLineSize, 1)[0]; got != 0 && got != 9 {
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
		got := load(d, 0, uint64(d.Size()))
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
