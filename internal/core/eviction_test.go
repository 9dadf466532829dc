package core

import (
	"testing"

	"corundum/internal/pmem"
	"corundum/internal/pool"
)

type tagEvict struct{}

type evictRoot struct {
	A PCell[int64, tagEvict]
	B PCell[int64, tagEvict]
}

// TestEvictionCrashSweep is the adversarial variant of the crash sweep:
// power is cut at every device operation AND a random subset of dirty
// cache lines happens to have been evicted (persisted without a flush), as
// real CPU caches may do. Correct PM software must tolerate any such
// subset; the journal's epoch-tagged checksums and ordering rules are what
// make that true. Every (crash point, eviction seed) pair must recover to
// exactly the pre- or post-transaction state.
func TestEvictionCrashSweep(t *testing.T) {
	for crashAt := 1; crashAt < 160; crashAt += 3 {
		for seed := int64(0); seed < 6; seed++ {
			cfg := Config{Size: 8 << 20, Journals: 2, Mem: pmem.Options{TrackCrash: true}}
			root, err := Open[evictRoot, tagEvict]("", cfg)
			if err != nil {
				t.Fatal(err)
			}
			dev := DeviceOf[tagEvict]()

			// Seed state: A=1, B=2.
			if err := Transaction[tagEvict](func(j *Journal[tagEvict]) error {
				r := root.Deref()
				if err := r.A.Set(j, 1); err != nil {
					return err
				}
				return r.B.Set(j, 2)
			}); err != nil {
				t.Fatal(err)
			}

			var count int
			dev.SetFaultInjector(func(op pmem.Op) bool {
				count++
				return count == crashAt
			})
			finished := false
			func() {
				defer func() {
					if r := recover(); r != nil && r != pmem.ErrInjectedCrash {
						panic(r)
					}
				}()
				// The transaction updates both cells and allocates a box it
				// then drops: a mix of undo, alloc, and drop entries.
				_ = Transaction[tagEvict](func(j *Journal[tagEvict]) error {
					r := root.Deref()
					if err := r.A.Set(j, 10); err != nil {
						return err
					}
					b, err := NewPBox[int64, tagEvict](j, 99)
					if err != nil {
						return err
					}
					if err := b.Free(j); err != nil {
						return err
					}
					return r.B.Set(j, 20)
				})
				finished = true
			}()
			dev.SetFaultInjector(nil)
			sweepDone := finished && crashAt > count

			dev.CrashWithEviction(seed)
			if err := ClosePool[tagEvict](); err != nil {
				t.Fatal(err)
			}
			p2, err := pool.Attach(dev)
			if err != nil {
				t.Fatalf("crashAt=%d seed=%d: %v", crashAt, seed, err)
			}
			adopted, err := Adopt[evictRoot, tagEvict](p2)
			if err != nil {
				t.Fatalf("crashAt=%d seed=%d: %v", crashAt, seed, err)
			}
			r := adopted.Deref()
			a, b := r.A.Get(), r.B.Get()
			okPre := a == 1 && b == 2
			okPost := a == 10 && b == 20
			if !okPre && !okPost {
				t.Fatalf("crashAt=%d seed=%d: torn state A=%d B=%d", crashAt, seed, a, b)
			}
			if err := p2.CheckConsistency(); err != nil {
				t.Fatalf("crashAt=%d seed=%d: %v", crashAt, seed, err)
			}
			// Space conservation regardless of outcome: the dropped box must
			// not leak or double-free (root block only).
			if got := p2.InUse(); got != 64 {
				t.Fatalf("crashAt=%d seed=%d: in-use %d, want 64", crashAt, seed, got)
			}
			_ = ClosePool[tagEvict]()
			if sweepDone {
				return
			}
		}
	}
}

type tagSibling struct{}

type siblingRoot struct {
	A PRefCell[int64, tagSibling]
	B PCell[int64, tagSibling]
}

// TestTypedStoreSurvivesSiblingCommit guards the journal's commit-time
// write-back of the typed path. A is stored through the pointer BorrowMut
// hands out, which the device never sees. Between A's undo log and its
// store, a transaction on a second journal commits B, a neighbouring word
// of the same cache line, and its flush clears the line's dirty mark. A's
// commit must still mark and flush A's logged range, or A's value lives
// only in the cache and the crash loses it.
func TestTypedStoreSurvivesSiblingCommit(t *testing.T) {
	root := openMem[siblingRoot, tagSibling](t)
	logged, siblingDone := make(chan struct{}), make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- Transaction[tagSibling](func(j *Journal[tagSibling]) error {
			rm, err := root.Deref().A.BorrowMut(j)
			if err != nil {
				return err
			}
			close(logged)
			<-siblingDone
			*rm.Value() = 10
			return nil
		})
	}()
	select {
	case <-logged:
	case err := <-errc:
		t.Fatalf("transaction A ended before its store: %v", err)
	}
	if err := Transaction[tagSibling](func(j *Journal[tagSibling]) error {
		return root.Deref().B.Set(j, 20)
	}); err != nil {
		t.Fatal(err)
	}
	close(siblingDone)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	dev := DeviceOf[tagSibling]()
	dev.Crash()
	if err := ClosePool[tagSibling](); err != nil {
		t.Fatal(err)
	}
	p, err := pool.Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := Adopt[siblingRoot, tagSibling](p)
	if err != nil {
		t.Fatal(err)
	}
	r := adopted.Deref()
	if a, b := r.A.Read(), r.B.Get(); a != 10 || b != 20 {
		t.Fatalf("after both commits and a crash A=%d B=%d, want A=10 B=20", a, b)
	}
}
