package pmem

import (
	"errors"
	"testing"
)

// TestContain pins the three outcomes of the one cut-containment helper:
// a body that returns is not a cut, a power cut is, and any other panic
// reaches the caller as the very same value.
func TestContain(t *testing.T) {
	ran := false
	if Contain(func() { ran = true }) || !ran {
		t.Fatalf("returning body: cut reported or body skipped (ran=%v)", ran)
	}

	d := newTracked(t, 4096)
	d.CrashAt(d.OpCount() + 2)
	writes := 0
	cut := Contain(func() {
		for i := 0; i < 4; i++ {
			d.Write(uint64(i)*8, []byte{1})
			writes++
		}
	})
	if !cut || writes != 1 {
		t.Fatalf("armed cut at the 2nd write: cut=%v after %d completed writes, want true after 1", cut, writes)
	}

	other := errors.New("not a power cut")
	defer func() {
		if r := recover(); r != other {
			t.Fatalf("foreign panic surfaced as %v, want the original value", r)
		}
	}()
	Contain(func() { panic(other) })
	t.Fatal("foreign panic was swallowed")
}
