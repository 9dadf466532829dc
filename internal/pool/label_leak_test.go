package pool

import (
	"testing"

	"corundum/internal/journal"
	"corundum/internal/pmem"
)

// TestPowerCutLeavesNoAttributionBehind cuts power at every device op of
// one alloc + DataLog + DropLog transaction and, after each reboot and
// recovery, issues one plain Write/Flush/Fence from the same goroutine:
// the cut must leave nothing behind, so that traffic is user data and
// nothing else. Attribution rides the handle each layer was given, not
// the goroutine, so there is no label a power cut could strand.
func TestPowerCutLeavesNoAttributionBehind(t *testing.T) {
	points := 0
	for cut := uint64(1); ; cut++ {
		if !cutAndProbe(t, cut) {
			break // the cut lies beyond the transaction's last op
		}
		points++
	}
	if points < 50 {
		t.Fatalf("only %d cut points exercised; the transaction shrank", points)
	}
	t.Logf("%d cut points", points)
}

// cutAndProbe runs the transaction on a fresh pool with power cut at its
// cut'th device op, recovers, and checks where one plain
// Write/Flush/Fence is charged. It reports whether the cut fired.
func cutAndProbe(t *testing.T, cut uint64) (crashed bool) {
	t.Helper()
	p, err := Create("", Config{Size: 1 << 20, Journals: 1, JournalCap: 8 << 10, Mem: pmem.Options{TrackCrash: true}})
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	var cell, victim uint64
	if err := p.Transaction(func(j *journal.Journal) error {
		if cell, err = j.Alloc(8); err != nil {
			return err
		}
		victim, err = j.Alloc(64)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	dev.CrashAt(dev.OpCount() + cut)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if r != pmem.ErrInjectedCrash {
					panic(r)
				}
				crashed = true
			}
		}()
		err = p.Transaction(func(j *journal.Journal) error {
			if _, err := j.Alloc(32); err != nil { // slab hit: a claim
				return err
			}
			if _, err := j.Alloc(8 << 10); err != nil { // slab miss: a full redo cycle
				return err
			}
			if err := j.DataLog(cell, 8); err != nil {
				return err
			}
			p.write8(cell, cut)
			return j.DropLog(victim, 64)
		})
	}()
	if !crashed {
		if err != nil {
			t.Fatal(err)
		}
		return false
	}
	p = crashAndReattach(t, p)
	if free := p.JournalsFree(); free != p.Journals() {
		t.Errorf("cut %d: %d/%d journals free after recovery", cut, free, p.Journals())
	}

	before := dev.Stats()
	dev.Write(cell, []byte{1})
	dev.Flush(cell, 1)
	dev.Fence()
	after := dev.Stats()
	for sc := pmem.Scope(0); sc < pmem.NumScopes; sc++ {
		b, a := before.ByScope[sc], after.ByScope[sc]
		got := [3]uint64{a.Writes - b.Writes, a.Flushes - b.Flushes, a.Fences - b.Fences}
		want := [3]uint64{}
		if sc == pmem.ScopeUserData {
			want = [3]uint64{1, 1, 1}
		}
		if got != want {
			t.Errorf("cut %d: plain write/flush/fence charged %v to %s, want %v", cut, got, sc, want)
		}
	}
	return true
}
