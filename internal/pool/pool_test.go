package pool

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corundum/internal/journal"
	"corundum/internal/pmem"
)

func testConfig() Config {
	return Config{
		Size:       8 << 20,
		Journals:   4,
		JournalCap: 64 << 10,
		Mem:        pmem.Options{TrackCrash: true},
	}
}

func newPool(t *testing.T) *Pool {
	t.Helper()
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// crashAndReattach simulates a machine crash and reboot for an in-memory pool.
func crashAndReattach(t *testing.T, p *Pool) *Pool {
	t.Helper()
	p.Device().Crash()
	p2, err := Attach(p.Device())
	if err != nil {
		t.Fatal(err)
	}
	return p2
}

func (p *Pool) write8(off, val uint64) {
	p.dev.Store8(off, val)
}

func (p *Pool) read8(off uint64) uint64 {
	return p.dev.Load8(off)
}

func TestCreateAndBasicTransaction(t *testing.T) {
	p := newPool(t)
	var cell uint64
	err := p.Transaction(func(j *journal.Journal) error {
		var err error
		cell, err = j.Alloc(8)
		if err != nil {
			return err
		}
		p.write8(cell, 77)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.read8(cell); got != 77 {
		t.Fatalf("got %d, want 77", got)
	}
}

func TestTransactionErrorRollsBack(t *testing.T) {
	p := newPool(t)
	var cell uint64
	if err := p.Transaction(func(j *journal.Journal) error {
		var err error
		cell, err = j.Alloc(8)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	p.write8(cell, 5)
	p.Device().Persist(cell, 8)

	boom := errors.New("boom")
	err := p.Transaction(func(j *journal.Journal) error {
		if err := j.DataLog(cell, 8); err != nil {
			return err
		}
		p.write8(cell, 6)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if got := p.read8(cell); got != 5 {
		t.Fatalf("value after failed tx = %d, want 5", got)
	}
}

func TestTransactionPanicRollsBackAndRepanics(t *testing.T) {
	p := newPool(t)
	var cell uint64
	if err := p.Transaction(func(j *journal.Journal) error {
		var err error
		cell, err = j.Alloc(8)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	p.write8(cell, 1)
	p.Device().Persist(cell, 8)

	func() {
		defer func() {
			if r := recover(); r != "kaboom" {
				t.Fatalf("recovered %v, want kaboom", r)
			}
		}()
		_ = p.Transaction(func(j *journal.Journal) error {
			if err := j.DataLog(cell, 8); err != nil {
				return err
			}
			p.write8(cell, 2)
			panic("kaboom")
		})
	}()
	if got := p.read8(cell); got != 1 {
		t.Fatalf("value after panicked tx = %d, want 1", got)
	}
	// The journal must have been released: another tx must not block.
	if err := p.Transaction(func(*journal.Journal) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestNestedTransactionIsIndependent pins what calling Transaction from
// inside a transaction body means: a second transaction on its own journal
// slot, committed or aborted on its own. Joining the caller's transaction
// is done by passing j (journal.TestNestedTransactionsFlatten covers the
// flattening itself). With every slot taken the inner call waits, or
// under SetAcquireTimeout fails with ErrBusy.
func TestNestedTransactionIsIndependent(t *testing.T) {
	p, err := Create("", Config{Size: 8 << 20, Journals: 2, JournalCap: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	p.SetAcquireTimeout(10 * time.Millisecond)
	var outerCell, innerCell uint64
	boom := errors.New("outer boom")
	err = p.Transaction(func(j *journal.Journal) error {
		var err error
		if outerCell, err = j.Alloc(8); err != nil {
			return err
		}
		if err := p.Transaction(func(j2 *journal.Journal) error {
			if j2 == j {
				t.Error("inner transaction shares the outer journal")
			}
			innerCell, err = j2.Alloc(8)
			if err != nil {
				return err
			}
			// Both slots are now taken: a third level cannot start.
			if err := p.Transaction(func(*journal.Journal) error { return nil }); !errors.Is(err, ErrBusy) {
				t.Errorf("third-level transaction = %v, want ErrBusy", err)
			}
			return nil
		}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !p.IsAllocated(innerCell, 8) {
		t.Error("inner transaction committed, but its block is gone after the outer abort")
	}
	if p.IsAllocated(outerCell, 8) {
		t.Error("outer transaction aborted, but its block is still allocated")
	}
	if free := p.JournalsFree(); free != p.Journals() {
		t.Fatalf("%d/%d journals free afterwards", free, p.Journals())
	}
}

// TestNestedAbortAbortsOuter: an inner transaction's error, returned by
// the outer body, rolls the outer transaction back too.
func TestNestedAbortAbortsOuter(t *testing.T) {
	p := newPool(t)
	var cell uint64
	if err := p.Transaction(func(j *journal.Journal) error {
		var err error
		cell, err = j.Alloc(8)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	p.write8(cell, 10)
	p.Device().Persist(cell, 8)

	boom := errors.New("inner boom")
	err := p.Transaction(func(j *journal.Journal) error {
		if err := j.DataLog(cell, 8); err != nil {
			return err
		}
		p.write8(cell, 11)
		if err := p.Transaction(func(*journal.Journal) error { return boom }); err != nil {
			return err
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := p.read8(cell); got != 10 {
		t.Fatalf("outer updates survived inner abort: %d", got)
	}
}

func TestConcurrentTransactionsUseDistinctJournals(t *testing.T) {
	p := newPool(t)
	const workers = 8
	const rounds = 50
	cells := make([]uint64, workers)
	for i := range cells {
		i := i
		if err := p.Transaction(func(j *journal.Journal) error {
			var err error
			cells[i], err = j.Alloc(8)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				err := p.Transaction(func(j *journal.Journal) error {
					if err := j.DataLog(cells[w], 8); err != nil {
						return err
					}
					p.write8(cells[w], p.read8(cells[w])+1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range cells {
		if got := p.read8(cells[w]); got != rounds {
			t.Fatalf("worker %d cell = %d, want %d", w, got, rounds)
		}
	}
}

func TestRootSetAndRecovered(t *testing.T) {
	p := newPool(t)
	var root uint64
	err := p.Transaction(func(j *journal.Journal) error {
		var err error
		root, err = j.Alloc(64)
		if err != nil {
			return err
		}
		return p.SetRoot(j, root, 0xDEAD)
	})
	if err != nil {
		t.Fatal(err)
	}
	p2 := crashAndReattach(t, p)
	if got := p2.RootOff(); got != root {
		t.Fatalf("root after crash = %#x, want %#x", got, root)
	}
	if got := p2.RootTypeHash(); got != 0xDEAD {
		t.Fatalf("root type hash = %#x", got)
	}
}

func TestRootSetRolledBackOnCrash(t *testing.T) {
	p := newPool(t)
	// Crash mid-transaction: SetRoot and the allocation must both vanish.
	dev := p.Device()
	var count int
	dev.SetFaultInjector(func(op pmem.Op) bool {
		count++
		return count == 40 // somewhere inside the tx
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
	p2 := crashAndReattach(t, p)
	if got := p2.RootOff(); got != 0 {
		t.Fatalf("root leaked from aborted tx: %#x", got)
	}
	if p2.InUse() != 0 {
		t.Fatalf("allocation leaked: %d bytes in use", p2.InUse())
	}
}

func TestClosedPoolRejectsTransactions(t *testing.T) {
	p := newPool(t)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	err := p.Transaction(func(*journal.Journal) error { return nil })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close err = %v, want ErrClosed", err)
	}
}

func TestGenerationBumpsOnReopen(t *testing.T) {
	p := newPool(t)
	g1 := p.Generation()
	p2 := crashAndReattach(t, p)
	if p2.Generation() <= g1 {
		t.Fatalf("generation did not advance: %d -> %d", g1, p2.Generation())
	}
}

func TestFilePoolRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.pool")
	cfg := testConfig()
	p, err := Create(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cell uint64
	if err := p.Transaction(func(j *journal.Journal) error {
		var err error
		cell, err = j.AllocInit([]byte("durable!"))
		if err != nil {
			return err
		}
		return p.SetRoot(j, cell, 7)
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(path, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	off := p2.RootOff()
	got := make([]byte, 8)
	p2.Device().LoadBytes(off, got)
	if string(got) != "durable!" {
		t.Fatalf("reloaded %q", got)
	}
}

func TestOpenRejectsGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := writeJunk(path, 1<<16); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, pmem.Options{}); !errors.Is(err, ErrNotAPool) {
		t.Fatalf("err = %v, want ErrNotAPool", err)
	}
}

func TestTooSmallConfigRejected(t *testing.T) {
	_, err := Create("", Config{Size: 4096, Journals: 4, JournalCap: 1 << 20})
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestArenaRoutingAcrossJournals(t *testing.T) {
	p := newPool(t)
	// Allocate from one arena, free from a transaction that happens to use
	// a different journal: the pool must route the free to the owner arena.
	var off uint64
	if err := p.Transaction(func(j *journal.Journal) error {
		var err error
		off, err = j.Alloc(128)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	inUse := p.InUse()
	if err := p.Transaction(func(j *journal.Journal) error {
		return j.DropLog(off, 128)
	}); err != nil {
		t.Fatal(err)
	}
	if got := p.InUse(); got != inUse-128 {
		t.Fatalf("in use = %d, want %d", got, inUse-128)
	}
}

func writeJunk(path string, n int) error {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	return writeFileHelper(path, buf)
}

func writeFileHelper(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestConfigFloors(t *testing.T) {
	p, err := Create("", Config{Size: 8 << 20, Journals: -3, JournalCap: 7})
	if err != nil {
		t.Fatal(err)
	}
	if p.Journals() != 16 {
		t.Fatalf("journals = %d, want default 16", p.Journals())
	}
	// A tiny JournalCap must have been floored: a transaction logging a
	// few hundred bytes works without chaining issues.
	if err := p.Transaction(func(j *journal.Journal) error {
		off, err := j.Alloc(256)
		if err != nil {
			return err
		}
		return j.DataLog(off, 256)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryCountersAndJournalOccupancy covers the status surface the
// server's INFO command reports: JournalsFree tracks the free-list, and
// Recovery() reflects what journal.Recover did at the last attach.
func TestRecoveryCountersAndJournalOccupancy(t *testing.T) {
	p := newPool(t)
	if free := p.JournalsFree(); free != p.Journals() {
		t.Fatalf("fresh pool: %d/%d journals free", free, p.Journals())
	}
	if rb, rf := p.Recovery(); rb != 0 || rf != 0 {
		t.Fatalf("fresh pool reports recovery %d/%d", rb, rf)
	}
	inTx := -1
	if err := p.Transaction(func(j *journal.Journal) error {
		inTx = p.JournalsFree()
		_, err := j.Alloc(8)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if inTx != p.Journals()-1 {
		t.Fatalf("in-tx journals free = %d, want %d", inTx, p.Journals()-1)
	}
	if free := p.JournalsFree(); free != p.Journals() {
		t.Fatalf("after tx: %d/%d journals free", free, p.Journals())
	}

	// Crash mid-transaction at progressively later device operations until
	// the cut lands after the journal became durable: that reattach must
	// report exactly one interrupted journal recovered.
	payload := make([]byte, 256)
	for crashAt := 10; crashAt < 2000; crashAt += 10 {
		dev := p.Device()
		var count int
		dev.SetFaultInjector(func(op pmem.Op) bool {
			count++
			return count == crashAt
		})
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					crashed = true
				}
			}()
			_ = p.Transaction(func(j *journal.Journal) error {
				for i := 0; i < 8; i++ {
					if _, err := j.AllocInit(payload); err != nil {
						return err
					}
				}
				return nil
			})
		}()
		dev.SetFaultInjector(nil)
		if !crashed {
			t.Fatalf("crash point %d never fired; transaction uses fewer device ops", crashAt)
		}
		p = crashAndReattach(t, p)
		rb, rf := p.Recovery()
		if rb+rf > 1 {
			t.Fatalf("crash at %d: recovery handled %d+%d journals, one tx was in flight", crashAt, rb, rf)
		}
		if free := p.JournalsFree(); free != p.Journals() {
			t.Fatalf("crash at %d: %d/%d journals free after recovery", crashAt, free, p.Journals())
		}
		if rb+rf == 1 {
			return // observed a real recovery — done
		}
	}
	t.Fatal("no crash point produced a recoverable journal")
}

// TestDroppedBlockNotReallocatedBeforeIdle pins the reuse-after-drop
// invariant: a block freed by a commit's drop must not reach another
// transaction until the dropping journal is durably idle. J1 drops X
// (which lives in J2's arena); once the free has been applied — the
// allocator fence that follows it has completed — a second goroutine
// runs a J2 transaction that allocates the same size, fills the block
// and commits, and power is cut before J1's idle word is written. If
// J2's commit returned before the cut, recovery must leave its block
// allocated with its contents; re-applying J1's drop to it would free a
// live block.
func TestDroppedBlockNotReallocatedBeforeIdle(t *testing.T) {
	cfg := testConfig()
	cfg.Journals = 2
	p, err := Create("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	const size = 128
	fill := bytes.Repeat([]byte{0xAB}, size)

	// Slot 0 allocates X; the slot ring then hands slot 1 to the dropper
	// and slot 0 — X's arena — to the transaction started under it.
	var x uint64
	if err := p.Transaction(func(j *journal.Journal) error {
		var err error
		x, err = j.Alloc(size)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		off       uint64
		committed bool
	}
	j2 := func() (out outcome) {
		defer func() {
			if r := recover(); r != nil && r != pmem.ErrInjectedCrash {
				panic(r)
			}
		}()
		err := p.Transaction(func(j *journal.Journal) error {
			var err error
			out.off, err = j.AllocInit(fill)
			return err
		})
		out.committed = err == nil
		return out
	}

	var (
		armed    atomic.Bool
		early    = make(chan outcome, 1) // J2 finished while J1 was still committing
		finished = make(chan outcome, 1)
	)
	dev.SetOpHook(func(op pmem.Op, sc pmem.Scope, _ uint64) {
		if op != pmem.OpFence || sc != pmem.ScopeAllocRedo || !armed.CompareAndSwap(true, false) {
			return
		}
		go func() { finished <- j2() }()
		select {
		case out := <-finished:
			early <- out
		case <-time.After(100 * time.Millisecond):
			// J2 is being held out, as it must be.
		}
		dev.CrashAt(dev.OpCount() + 1) // J1's next op: the idle retire
	})
	func() {
		defer func() {
			if r := recover(); r != pmem.ErrInjectedCrash {
				t.Fatalf("dropping transaction ended with %v, want the injected power cut", r)
			}
		}()
		p.Transaction(func(j *journal.Journal) error {
			armed.Store(true)
			return j.DropLog(x, size)
		})
	}()
	dev.SetOpHook(nil)

	var got outcome
	select {
	case got = <-early:
	case got = <-finished: // released by the cut, onto a dead device
		if got.committed {
			t.Fatal("a transaction committed after the power cut")
		}
	}
	p2 := crashAndReattach(t, p)
	if err := p2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if !got.committed {
		return
	}
	if got.off != x {
		t.Logf("J2 received %#x, not the dropped block %#x", got.off, x)
	}
	if !p2.IsAllocated(got.off, size) {
		t.Fatalf("block %#x, allocated and committed by J2 before the cut, was freed by recovery (J1's drop re-applied to its new owner)", got.off)
	}
	contents := make([]byte, size)
	p2.Device().LoadBytes(got.off, contents)
	if !bytes.Equal(contents, fill) {
		t.Fatalf("block %#x lost J2's committed contents", got.off)
	}
}

// TestReadViewRejectsWildOffsets: a damaged pointer is !ok, never a
// panic, however far out of range it points — including offsets whose
// word end wraps past 2^64.
func TestReadViewRejectsWildOffsets(t *testing.T) {
	p, err := Create("", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	v, err := p.ReadView()
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint64{v.Size(), v.Size() - 4, 3, ^uint64(7), ^uint64(0)} {
		if _, ok := v.Load(off); ok {
			t.Errorf("Load(%#x) on a %d-byte view = ok", off, v.Size())
		}
	}
	if _, ok := v.Load(v.Size() - 8); !ok {
		t.Error("the last word of the view is not readable")
	}
}

// TestNothingStoresAfterTheCut: a power cut ends execution. When the cut
// lands on a transaction's second undo append, the deferred rollback must
// not write the first word's old value back into live memory: a
// powered-off machine stores nothing, and a line it dirtied could still
// reach the media through eviction (CrashWithEviction).
func TestNothingStoresAfterTheCut(t *testing.T) {
	p := newPool(t)
	const old, stored = 0xaaaa, 0xbbbb
	var w, w2 uint64
	if err := p.Transaction(func(j *journal.Journal) (err error) {
		if w, err = j.Alloc(8); err != nil {
			return err
		}
		w2, err = j.Alloc(8)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	p.write8(w, old)
	p.Device().Persist(w, 8)

	dev := p.Device()
	cut := pmem.Contain(func() {
		_ = p.Transaction(func(j *journal.Journal) error {
			if err := j.DataLog(w, 8); err != nil {
				return err
			}
			p.write8(w, stored)
			dev.SetFaultInjector(func(op pmem.Op) bool { return op == pmem.OpWrite })
			return j.DataLog(w2, 8) // the cut lands on this append
		})
	})
	dev.SetFaultInjector(nil)
	if !cut {
		t.Fatal("the injector never cut power")
	}
	if got := p.read8(w); got != stored {
		t.Fatalf("live word %#x after the cut, want %#x: something stored after power was off", got, stored)
	}
	p2 := crashAndReattach(t, p)
	if got := p2.read8(w); got != old {
		t.Fatalf("recovered word %#x, want the committed %#x", got, old)
	}
}
