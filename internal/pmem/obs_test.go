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
	// FlushNanos and FenceNanos are modelled time: lines flushed × the
	// profile's FlushDelay and fences × its FenceDelay, exact and charged
	// to the issuing scope. Under NoDelay both are 0.
	for _, prof := range []Profile{NoDelay, OptaneDC} {
		d := New(4096, Options{Profile: prof})
		d.Write(0, []byte{1})
		d.Flush(0, 1)
		d.Fence()
		j := d.In(ScopeJournal)
		j.Write(64, []byte{2, 3})
		j.Flush(127, 2) // two lines
		j.Fence()
		j.Fence()

		st := d.Stats()
		flush, fence := uint64(prof.FlushDelay), uint64(prof.FenceDelay)
		if got, want := st.ByScope[ScopeUserData], (OpCounts{Writes: 1, Flushes: 1, Fences: 1, FlushNanos: flush, FenceNanos: fence}); got != want {
			t.Errorf("%s: user-data counts = %+v, want %+v", prof.Name, got, want)
		}
		if got, want := st.ByScope[ScopeJournal], (OpCounts{Writes: 1, Flushes: 2, Fences: 2, FlushNanos: 2 * flush, FenceNanos: 2 * fence}); got != want {
			t.Errorf("%s: journal counts = %+v, want %+v", prof.Name, got, want)
		}
		if got, want := st.OpCounts, (OpCounts{Writes: 2, Flushes: 3, Fences: 3, FlushNanos: 3 * flush, FenceNanos: 3 * fence}); got != want {
			t.Errorf("%s: totals = %+v, want %+v", prof.Name, got, want)
		}
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
