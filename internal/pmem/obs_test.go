package pmem

import (
	"strings"
	"sync"
	"testing"
)

// TestScopeNesting: "innermost wins" is who owns which handle. Work one
// layer does from inside another's (an allocator free performed during
// recovery) goes through its own handle and is charged to it, and the
// outer layer's handle is unaffected afterwards.
func TestScopeNesting(t *testing.T) {
	d := New(4096, Options{})
	rec, redo := d.In(ScopeRecovery), d.In(ScopeAllocRedo)
	rec.Write(0, []byte{1})
	redo.Write(64, []byte{2}) // the allocator, called by recovery
	redo.Persist(64, 1)
	rec.Persist(0, 1)
	d.Fence() // the device itself: user data
	st := d.Stats()
	for sc, want := range map[Scope]OpCounts{
		ScopeRecovery:  {Writes: 1, Flushes: 1, Fences: 1},
		ScopeAllocRedo: {Writes: 1, Flushes: 1, Fences: 1},
		ScopeUserData:  {Fences: 1},
		ScopeJournal:   {},
	} {
		got := st.ByScope[sc]
		got.FlushNanos, got.FenceNanos = 0, 0
		if got != want {
			t.Errorf("%s counts = %+v, want %+v", sc, got, want)
		}
	}
}

func TestStatsAttributesByScope(t *testing.T) {
	d := New(4096, Options{})
	d.Write(0, []byte{1})
	d.Flush(0, 1)
	d.Fence()
	j := d.In(ScopeJournal)
	j.Write(64, []byte{2})
	j.Flush(64, 1)
	j.Fence()
	j.Fence()

	st := d.Stats()
	counts := func(c OpCounts) OpCounts {
		c.FlushNanos, c.FenceNanos = 0, 0
		return c
	}
	if got := counts(st.ByScope[ScopeUserData]); got != (OpCounts{Writes: 1, Flushes: 1, Fences: 1}) {
		t.Errorf("user-data counts = %+v", got)
	}
	if got := counts(st.ByScope[ScopeJournal]); got != (OpCounts{Writes: 1, Flushes: 1, Fences: 2}) {
		t.Errorf("journal counts = %+v", got)
	}
	if st.Writes != 2 || st.Flushes != 2 || st.Fences != 3 {
		t.Errorf("totals = %d/%d/%d, want 2/2/3", st.Writes, st.Flushes, st.Fences)
	}
	// Wall-clock time inside Flush/Fence is charged to the issuing scope
	// and summed into the totals.
	if st.ByScope[ScopeJournal].FenceNanos == 0 || st.ByScope[ScopeUserData].FenceNanos == 0 {
		t.Errorf("fence nanos not attributed: %+v", st)
	}
	if st.FenceNanos != st.ByScope[ScopeUserData].FenceNanos+st.ByScope[ScopeJournal].FenceNanos {
		t.Errorf("fence nanos total %d != sum of scopes", st.FenceNanos)
	}
}

func TestStatsIsSnapshot(t *testing.T) {
	d := New(4096, Options{})
	d.Write(0, []byte{1})
	st := d.Stats()
	d.Write(64, []byte{2})
	d.Write(128, []byte{3})
	if st.Writes != 1 {
		t.Fatalf("snapshot mutated: writes = %d, want 1", st.Writes)
	}
	if now := d.Stats().Writes; now != 3 {
		t.Fatalf("live count = %d, want 3", now)
	}
}

func TestOpHook(t *testing.T) {
	d := New(4096, Options{})
	type call struct {
		op    Op
		scope Scope
		n     uint64
	}
	var mu sync.Mutex
	var calls []call
	d.SetOpHook(func(op Op, sc Scope, n uint64) {
		mu.Lock()
		calls = append(calls, call{op, sc, n})
		mu.Unlock()
	})
	d.In(ScopeAllocRedo).Write(0, []byte{1, 2, 3})
	d.Persist(0, 3)
	d.SetOpHook(nil)
	d.Fence() // after removal: not observed

	want := []call{
		{OpWrite, ScopeAllocRedo, 3},
		{OpFlush, ScopeUserData, 1},
		{OpFence, ScopeUserData, 0},
	}
	if len(calls) != len(want) {
		t.Fatalf("hook calls = %+v, want %+v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("call %d = %+v, want %+v", i, calls[i], want[i])
		}
	}
}

func TestFlightRecorderRecordsAndFormats(t *testing.T) {
	d := New(4096, Options{FlightRecorder: 64})
	j := d.In(ScopeJournal)
	j.Write(128, []byte{1, 2})
	j.Persist(128, 2)

	evs := d.FlightEvents()
	if len(evs) != 3 {
		t.Fatalf("flight events = %+v, want 3", evs)
	}
	dump := FormatFlight(evs)
	for _, want := range []string{
		"write scope=journal off=128 len=2",
		"flush scope=journal off=128 lines=1",
		"fence scope=journal",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestFlightRecorderMarksInjectedCrash(t *testing.T) {
	d := New(4096, Options{TrackCrash: true, FlightRecorder: 64})
	d.Write(0, []byte{1})
	d.Persist(0, 1)

	// Cut power at the next fence; the flight recorder must show the full
	// pre-crash history followed by the CRASH marker, so the dump names
	// the last fence that completed before the cut.
	d.SetFaultInjector(func(op Op) bool { return op == OpFence })
	func() {
		defer func() {
			if recover() != ErrInjectedCrash {
				t.Fatal("injector did not fire")
			}
		}()
		d.Write(64, []byte{2})
		d.Persist(64, 1)
	}()
	d.SetFaultInjector(nil)
	d.Crash()

	evs := d.FlightEvents()
	var lastFence, crashAt = -1, -1
	for i, e := range evs {
		switch e.Op {
		case OpFence:
			if crashAt == -1 {
				lastFence = i
			}
		case OpCrash:
			if crashAt == -1 {
				crashAt = i
			}
		}
	}
	if crashAt == -1 {
		t.Fatalf("no CRASH marker in dump:\n%s", FormatFlight(evs))
	}
	if lastFence == -1 || lastFence > crashAt {
		t.Fatalf("no fence before the crash marker:\n%s", FormatFlight(evs))
	}
	if !strings.Contains(FormatFlight(evs), "CRASH") {
		t.Fatalf("formatted dump lacks CRASH:\n%s", FormatFlight(evs))
	}
}

func TestSetFlightRecorderInstallsAndRemoves(t *testing.T) {
	d := New(4096, Options{})
	if evs := d.FlightEvents(); evs != nil {
		t.Fatalf("no recorder installed, got events %+v", evs)
	}
	d.SetFlightRecorder(16)
	d.Write(0, []byte{1})
	if evs := d.FlightEvents(); len(evs) != 1 {
		t.Fatalf("events = %+v, want 1", evs)
	}
	d.SetFlightRecorder(0)
	if evs := d.FlightEvents(); evs != nil {
		t.Fatalf("recorder removed, got events %+v", evs)
	}
}
