// Package bench regenerates every table and figure in the paper's
// evaluation: Table 2 (static-check matrix), Table 3 (lines of code),
// Table 5 (basic-operation latency), Figure 1 (library comparison), and
// Figure 2 (wordcount scalability). Each Table 5 row, Figure 1 bar and
// Figure 2 point is written once, as an entry of a table here; both
// corundum-bench and the repository root's `go test -bench` run those
// entries. Each generator returns structured rows and can emit the
// artifact's CSV formats (micro.csv, perf.csv, scale.csv).
package bench

import (
	"fmt"
	"runtime"
	"time"

	"corundum/internal/alloc"
	"corundum/internal/core"
	"corundum/internal/pmem"
)

// MicroResult is one Table 5 row under one memory profile.
type MicroResult struct {
	Op    string
	AvgNs float64
}

// Table5Profiles are Table 5's two columns, in print order.
func Table5Profiles() []pmem.Profile { return []pmem.Profile{pmem.OptaneDC, pmem.DRAM} }

// ProfileByName returns the built-in memory profile called name.
func ProfileByName(name string) (pmem.Profile, error) {
	for _, p := range []pmem.Profile{pmem.OptaneDC, pmem.DRAM, pmem.NoDelay} {
		if p.Name == name {
			return p, nil
		}
	}
	return pmem.Profile{}, fmt.Errorf("unknown profile %q", name)
}

// microTag is the pool tag the Table 5 rows run in.
type microTag struct{}

type microRoot struct {
	Cell core.PCell[int64, microTag]
}

// OpenMicro opens the pool Table 5's rows run in, under prof, and returns
// the function that closes it.
func OpenMicro(prof pmem.Profile) (closePool func() error, err error) {
	// Keep the pool modest and collect the previous profile's arena before
	// timing: a half-gigabyte of garbage from a prior run otherwise bleeds
	// GC pauses into the measurements.
	runtime.GC()
	cfg := core.Config{
		Size:       256 << 20,
		Journals:   4,
		JournalCap: 8 << 20,
		Mem:        pmem.Options{Profile: prof},
	}
	if _, err := core.Open[microRoot, microTag]("", cfg); err != nil {
		return nil, err
	}
	return core.ClosePool[microTag], nil
}

// A Row is one row of Table 5.
type Row struct {
	Name string
	// Share divides Micro's op budget: the row runs ops/Share operations.
	Share int
	run   func(m *meter, n int) error
}

// Time runs n of the row's operations in the pool OpenMicro opened and
// returns the time spent inside the named operation alone.
func (r Row) Time(n int) (time.Duration, error) {
	var m meter
	err := r.run(&m, n)
	return m.total, err
}

// A meter accumulates the time a row spends inside its named operation.
// Only the row's run function starts and stops it, so set-up, clean-up
// and the steps of a cycle the row does not name stay off its clock.
type meter struct {
	total time.Duration
	t0    time.Time
	// inside is set between start and stop; the shape test counts device
	// operations only there.
	inside bool
}

func (m *meter) start() { m.inside = true; m.t0 = time.Now() }
func (m *meter) stop()  { m.total += time.Since(m.t0); m.inside = false }

// Micro measures the basic-operation latencies of Table 5 under the given
// profile, running ops/Share operations per row (the paper uses 50k).
func Micro(prof pmem.Profile, ops int) ([]MicroResult, error) {
	closePool, err := OpenMicro(prof)
	if err != nil {
		return nil, err
	}
	defer closePool()
	var results []MicroResult
	for _, r := range Table5() {
		n := max(1, ops/r.Share)
		d, err := r.Time(n)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		results = append(results, MicroResult{Op: r.Name, AvgNs: float64(d.Nanoseconds()) / float64(n)})
	}
	return results, nil
}

// perTx is how many operations a row batches into one transaction.
const perTx = 64

// Table5 returns Table 5's rows in print order.
func Table5() []Row {
	rows := []Row{
		// Direct typed loads from the mapped pool.
		{Name: "Deref", Share: 1, run: func(m *meter, n int) error {
			box, err := newBox()
			if err != nil {
				return err
			}
			var sink int64
			m.start()
			for i := 0; i < n; i++ {
				sink += *box.Deref()
			}
			m.stop()
			_ = sink
			return nil
		}},
		// The first DerefMut in a transaction pays for the undo log. Each
		// sample costs a transaction, so the row takes a 1/perTx share.
		{Name: "DerefMut (the 1st time)", Share: perTx, run: func(m *meter, n int) error {
			box, err := newBox()
			if err != nil {
				return err
			}
			return batchTx(n, 1, func(j *core.Journal[microTag], _ int) error {
				m.start()
				p, err := box.DerefMut(j)
				m.stop()
				if err != nil {
					return err
				}
				*p = 2
				return nil
			})
		}},
		{Name: "DerefMut (not the 1st time)", Share: 1, run: func(m *meter, n int) error {
			box, err := newBox()
			if err != nil {
				return err
			}
			return batchTx(n, perTx-1, func(j *core.Journal[microTag], cnt int) error {
				if _, err := box.DerefMut(j); err != nil {
					return err
				}
				m.start()
				for k := 0; k < cnt; k++ {
					q, err := box.DerefMut(j)
					if err != nil {
						return err
					}
					*q = int64(k)
				}
				m.stop()
				return nil
			})
		}},
	}
	// The raw allocator at the paper's three sizes, on a private arena
	// under the pool's profile.
	for _, size := range []uint64{8, 256, 4096} {
		rows = append(rows,
			Row{Name: fmt.Sprintf("Alloc (%s)", sizeLabel(size)), Share: 10, run: func(m *meter, n int) error {
				return allocFree(size, n, m, &meter{})
			}},
			Row{Name: fmt.Sprintf("Dealloc (%s)", sizeLabel(size)), Share: 10, run: func(m *meter, n int) error {
				return allocFree(size, n, &meter{}, m)
			}})
	}
	// Failure-atomic instantiation for the three pointer kinds.
	rows = append(rows,
		atomicInit("Pbox:AtomicInit (8 B)", core.NewPBox[int64, microTag], core.PBox[int64, microTag].Free),
		atomicInit("Prc:AtomicInit (8 B)", core.NewPrc[int64, microTag], core.Prc[int64, microTag].Drop),
		atomicInit("Parc:AtomicInit (8 B)", core.NewParc[int64, microTag], core.Parc[int64, microTag].Drop),
		// An empty transaction writes nothing to PM.
		Row{Name: "TxNop", Share: 1, run: func(m *meter, n int) error {
			m.start()
			defer m.stop()
			for i := 0; i < n; i++ {
				if err := core.Transaction[microTag](func(*core.Journal[microTag]) error { return nil }); err != nil {
					return err
				}
			}
			return nil
		}})
	for _, size := range []uint64{8, 1024, 4096} {
		rows = append(rows, Row{Name: fmt.Sprintf("DataLog (%s)", sizeLabel(size)), Share: 20, run: func(m *meter, n int) error {
			return dataLog(size, n, m)
		}})
	}
	// DropLog is constant-time regardless of size.
	for _, size := range []uint64{8, 32 << 10} {
		rows = append(rows, Row{Name: fmt.Sprintf("DropLog (%s)", sizeLabel(size)), Share: 20, run: func(m *meter, n int) error {
			return dropLog(size, n, m)
		}})
	}
	// Pbox::pclone = allocation + copy.
	rows = append(rows, Row{Name: "Pbox::pclone (8 B)", Share: 10, run: func(m *meter, n int) error {
		return batchTx(n, perTx, func(j *core.Journal[microTag], cnt int) error {
			b, err := core.NewPBox[int64, microTag](j, 7)
			if err != nil {
				return err
			}
			for k := 0; k < cnt; k++ {
				m.start()
				c, err := b.PClone(j)
				m.stop()
				if err != nil {
					return err
				}
				if err := c.Free(j); err != nil {
					return err
				}
			}
			return b.Free(j)
		})
	}})
	rows = append(rows, rcRows[core.Prc[int64, microTag], core.PWeak[int64, microTag], core.VWeak[int64, microTag]](
		[5]string{"Prc::pclone", "Prc::downgrade", "Prc::PWeak:upgrade", "Prc::demote", "Prc::VWeak::promote"},
		core.NewPrc[int64, microTag])...)
	// Parc's counts are logged under the counter lock.
	rows = append(rows, rcRows[core.Parc[int64, microTag], core.ParcWeak[int64, microTag], core.ParcVWeak[int64, microTag]](
		[5]string{"Parc::pclone", "Parc::downgrade", "Parc::PWeak::upgrade", "Parc::demote", "Parc::VWeak::promote"},
		core.NewParc[int64, microTag])...)
	return rows
}

func sizeLabel(size uint64) string {
	switch {
	case size >= 1<<10 && size%(1<<10) == 0:
		return fmt.Sprintf("%d kB", size>>10)
	default:
		return fmt.Sprintf("%d B", size)
	}
}

// newBox commits a fresh 8-byte PBox for a row to work on.
func newBox() (box core.PBox[int64, microTag], err error) {
	err = core.Transaction[microTag](func(j *core.Journal[microTag]) error {
		box, err = core.NewPBox[int64, microTag](j, 1)
		return err
	})
	return box, err
}

// batchTx runs total iterations in transactions of perTx each.
func batchTx(total, perTx int, body func(j *core.Journal[microTag], n int) error) error {
	for done := 0; done < total; done += perTx {
		n := min(perTx, total-done)
		if err := core.Transaction[microTag](func(j *core.Journal[microTag]) error {
			return body(j, n)
		}); err != nil {
			return err
		}
	}
	return nil
}

// allocRound bounds the blocks an Alloc or Dealloc row holds at once, so
// any n fits the arena: 8192 blocks of 4 kB are half of it.
const allocRound = 8192

// allocFree times the raw buddy allocator on a private arena under the
// pool's profile: n allocations of size on ma, and their frees, in
// allocation order, on mf.
func allocFree(size uint64, n int, ma, mf *meter) error {
	heap := uint64(64 << 20)
	meta := alloc.MetaSize(heap)
	dev := pmem.New(int(meta+heap), pmem.Options{Profile: core.DeviceOf[microTag]().Profile()})
	arena := alloc.Format(dev, 0, meta, heap)
	offs := make([]uint64, 0, min(n, allocRound))
	for done := 0; done < n; done += allocRound {
		offs = offs[:0]
		ma.start()
		for i := done; i < min(n, done+allocRound); i++ {
			off, err := arena.Alloc(size)
			if err != nil {
				return err
			}
			offs = append(offs, off)
		}
		ma.stop()
		mf.start()
		for _, off := range offs {
			if err := arena.Free(off, size); err != nil {
				return err
			}
		}
		mf.stop()
	}
	return nil
}

// atomicInit is an AtomicInit row: the failure-atomic allocation and
// initialisation of one pointer, timed with its drop.
func atomicInit[P any](name string, newP func(*core.Journal[microTag], int64) (P, error), drop func(P, *core.Journal[microTag]) error) Row {
	return Row{Name: name, Share: 10, run: func(m *meter, n int) error {
		return batchTx(n, perTx, func(j *core.Journal[microTag], cnt int) error {
			m.start()
			defer m.stop()
			for k := 0; k < cnt; k++ {
				p, err := newP(j, int64(k))
				if err != nil {
					return err
				}
				if err := drop(p, j); err != nil {
					return err
				}
			}
			return nil
		})
	}}
}

func dataLog(size uint64, n int, m *meter) error {
	const perTx = 16
	// The blocks come from an earlier transaction. A block the logging
	// transaction allocated itself needs no undo entry (the journal keeps
	// a flush-only range for it), so logging it would time nothing.
	blocks := make([]uint64, perTx)
	if err := core.Transaction[microTag](func(j *core.Journal[microTag]) (err error) {
		for k := range blocks {
			if blocks[k], err = j.Inner().Alloc(size); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Each transaction logs each block once, so first-touch dedup never
	// hides the cost.
	if err := batchTx(n, perTx, func(j *core.Journal[microTag], cnt int) error {
		for _, off := range blocks[:cnt] {
			m.start()
			err := j.Inner().DataLog(off, size)
			m.stop()
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return core.Transaction[microTag](func(j *core.Journal[microTag]) error {
		for _, off := range blocks {
			if err := j.Inner().DropLog(off, size); err != nil {
				return err
			}
		}
		return nil
	})
}

func dropLog(size uint64, n int, m *meter) error {
	const perTx = 16
	return batchTx(n, perTx, func(j *core.Journal[microTag], cnt int) error {
		for k := 0; k < cnt; k++ {
			off, err := j.Inner().Alloc(size)
			if err != nil {
				return err
			}
			m.start()
			err = j.Inner().DropLog(off, size)
			m.stop()
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// rcPtr, rcWeak and rcVWeak are what the reference-count rows call on
// Prc and Parc and on their weak pointers.
type rcPtr[R, W, V any] interface {
	PClone(*core.Journal[microTag]) (R, error)
	Downgrade(*core.Journal[microTag]) (W, error)
	Demote() V
	Drop(*core.Journal[microTag]) error
}

type rcWeak[R any] interface {
	Upgrade(*core.Journal[microTag]) (R, bool, error)
	Drop(*core.Journal[microTag]) error
}

type rcVWeak[R any] interface {
	Promote(*core.Journal[microTag]) (R, bool, error)
}

// rcRows are one pointer kind's pclone, downgrade, upgrade, demote and
// promote rows, named by names in that order. Every row runs the same
// cycle — clone, downgrade the clone, upgrade the weak pointer, demote
// the clone, promote the volatile pointer, drop all four — and times
// the one step it names.
func rcRows[R rcPtr[R, W, V], W rcWeak[R], V rcVWeak[R]](names [5]string, newRc func(*core.Journal[microTag], int64) (R, error)) []Row {
	rows := make([]Row, len(names))
	for step, name := range names {
		rows[step] = Row{Name: name, Share: 10, run: func(m *meter, n int) error {
			var rc R
			if err := core.Transaction[microTag](func(j *core.Journal[microTag]) (err error) {
				rc, err = newRc(j, 7)
				return err
			}); err != nil {
				return err
			}
			var idle meter
			ms := [5]*meter{&idle, &idle, &idle, &idle, &idle}
			ms[step] = m
			return batchTx(n, perTx, func(j *core.Journal[microTag], cnt int) error {
				for k := 0; k < cnt; k++ {
					ms[0].start()
					c, err := rc.PClone(j)
					ms[0].stop()
					if err != nil {
						return err
					}
					ms[1].start()
					w, err := c.Downgrade(j)
					ms[1].stop()
					if err != nil {
						return err
					}
					ms[2].start()
					s, ok, err := w.Upgrade(j)
					ms[2].stop()
					if err != nil || !ok {
						return fmt.Errorf("upgrade failed: %v", err)
					}
					ms[3].start()
					v := c.Demote()
					ms[3].stop()
					ms[4].start()
					s2, ok, err := v.Promote(j)
					ms[4].stop()
					if err != nil || !ok {
						return fmt.Errorf("promote failed: %v", err)
					}
					for _, d := range []R{c, s, s2} {
						if err := d.Drop(j); err != nil {
							return err
						}
					}
					if err := w.Drop(j); err != nil {
						return err
					}
				}
				return nil
			})
		}}
	}
	return rows
}
