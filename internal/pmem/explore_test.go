package pmem

import (
	"testing"
)

// opSequence runs a small deterministic workload and returns the op count
// it consumed.
func opSequence(d *Device) {
	d.Write(0, []byte{1, 2, 3})       // 1 op
	d.Flush(0, 2*CacheLineSize)       // 2 ops (one per line)
	d.Fence()                         // 1 op
	d.Write(CacheLineSize, []byte{4}) // 1 op
	d.Persist(CacheLineSize, 1)       // 2 ops (flush one line + fence)
}

func TestOpCountDeterministic(t *testing.T) {
	d1 := newTracked(t, 4096)
	d2 := newTracked(t, 4096)
	opSequence(d1)
	opSequence(d2)
	if d1.OpCount() != d2.OpCount() {
		t.Fatalf("op counts diverged: %d vs %d", d1.OpCount(), d2.OpCount())
	}
	if got := d1.OpCount(); got != 7 {
		t.Fatalf("op count = %d, want 7 (write, 2 flush lines, fence, write, flush line, fence)", got)
	}
}

func TestCrashAtFiresAtExactOp(t *testing.T) {
	for n := uint64(1); n <= 7; n++ {
		d := newTracked(t, 4096)
		d.CrashAt(n)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != ErrInjectedCrash {
						panic(r)
					}
					crashed = true
				}
			}()
			opSequence(d)
		}()
		if !crashed {
			t.Fatalf("CrashAt(%d) did not fire", n)
		}
		if got := d.OpCount(); got != n {
			t.Fatalf("CrashAt(%d): op count at cut = %d", n, got)
		}
		// The device is poisoned until the machine "reboots".
		func() {
			defer func() {
				if recover() != ErrInjectedCrash {
					t.Errorf("post-crash op did not panic with ErrInjectedCrash")
				}
			}()
			d.Fence()
		}()
		d.Crash()
		d.Fence() // rebooted: ops work again
	}
}

func TestCrashAtZeroDisarms(t *testing.T) {
	d := newTracked(t, 4096)
	d.CrashAt(3)
	d.CrashAt(0)
	opSequence(d) // must not panic
}

func TestRestoreDurableRewindsEverything(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{0xAA})
	d.Persist(0, 1)
	snap := d.DurableSnapshot()
	h0 := d.DurableHash()

	// Diverge: durable state changes, cache state accumulates, a crash is
	// armed.
	d.Write(0, []byte{0xBB})
	d.Persist(0, 1)
	d.Write(64, []byte{0xCC}) // dirty, unflushed
	d.CrashAt(1 << 30)
	if d.DurableHash() == h0 {
		t.Fatal("durable hash did not change after a new persist")
	}

	d.RestoreDurable(snap)
	if got := load(d, 0, 1)[0]; got != 0xAA {
		t.Fatalf("live byte after restore = %#x, want 0xAA", got)
	}
	if d.DurableHash() != h0 {
		t.Fatal("durable hash after restore differs from snapshot's")
	}
	// The dirty line from before the restore must be gone: a crash now
	// keeps the restored image exactly.
	d.Crash()
	if got := load(d, 64, 1)[0]; got != 0 {
		t.Fatalf("stale dirty line survived restore+crash: %#x", got)
	}
	opSequence(d) // the armed CrashAt was disarmed by the restore
}

func TestInjectorFiresDuringRecoveryScope(t *testing.T) {
	d := newTracked(t, 4096)
	fired := false
	d.SetFaultInjector(func(op Op) bool {
		fired = true
		return false
	})
	defer d.SetFaultInjector(nil)
	d.In(ScopeRecovery).Write(0, []byte{1})
	if !fired {
		t.Fatal("fault injector did not observe an op issued in ScopeRecovery")
	}
}
