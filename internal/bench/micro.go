// Package bench regenerates every table and figure in the paper's
// evaluation: Table 2 (static-check matrix), Table 3 (lines of code),
// Table 5 (basic-operation latency), Figure 1 (library comparison), and
// Figure 2 (wordcount scalability). Each generator returns structured rows
// and can emit the artifact's CSV formats (micro.csv, perf.csv,
// scale.csv).
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
	Op    string  `json:"op"`
	AvgNs float64 `json:"avg_ns"`
}

// microTag is the pool tag the microbenchmarks run in. Micro tears the
// pool down when finished so repeated runs work.
type microTag struct{}

type microRoot struct {
	Cell core.PCell[int64, microTag]
}

// Micro measures the basic-operation latencies of Table 5 under the given
// profile, averaging over ops operations per row (the paper uses 50k).
func Micro(prof pmem.Profile, ops int) ([]MicroResult, error) {
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
	defer core.ClosePool[microTag]()

	var results []MicroResult
	add := func(op string, total time.Duration, n int) {
		results = append(results, MicroResult{Op: op, AvgNs: float64(total.Nanoseconds()) / float64(n)})
	}

	// Deref: direct typed loads from the mapped pool.
	var box core.PBox[int64, microTag]
	if err := core.Transaction[microTag](func(j *core.Journal[microTag]) error {
		var err error
		box, err = core.NewPBox[int64, microTag](j, 1)
		return err
	}); err != nil {
		return nil, err
	}
	var sink int64
	start := time.Now()
	for i := 0; i < ops; i++ {
		sink += *box.Deref()
	}
	add("Deref", time.Since(start), ops)
	_ = sink

	// DerefMut, first and subsequent times. Batch iterations inside
	// transactions; the first DerefMut per transaction pays for logging.
	const perTx = 64
	var first, rest time.Duration
	firstN, restN := 0, 0
	for done := 0; done < ops; done += perTx {
		err := core.Transaction[microTag](func(j *core.Journal[microTag]) error {
			t0 := time.Now()
			p, err := box.DerefMut(j)
			if err != nil {
				return err
			}
			first += time.Since(t0)
			firstN++
			*p = int64(done)
			t1 := time.Now()
			for k := 1; k < perTx; k++ {
				q, err := box.DerefMut(j)
				if err != nil {
					return err
				}
				*q = int64(k)
			}
			rest += time.Since(t1)
			restN += perTx - 1
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	add("DerefMut (the 1st time)", first, firstN)
	add("DerefMut (not the 1st time)", rest, restN)

	// Raw allocator Alloc/Dealloc at the paper's three sizes, on a private
	// arena with the same latency profile.
	for _, size := range []uint64{8, 256, 4096} {
		avgAlloc, avgFree, err := allocDealloc(prof, size, ops/10)
		if err != nil {
			return nil, err
		}
		results = append(results,
			MicroResult{Op: fmt.Sprintf("Alloc (%s)", sizeLabel(size)), AvgNs: avgAlloc},
			MicroResult{Op: fmt.Sprintf("Dealloc (%s)", sizeLabel(size)), AvgNs: avgFree})
	}

	// Failure-atomic instantiation for the three pointer kinds.
	aiOps := ops / 10
	var tAI time.Duration
	if err := batchTx(aiOps, perTx, func(j *core.Journal[microTag], n int) error {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			b, err := core.NewPBox[int64, microTag](j, int64(k))
			if err != nil {
				return err
			}
			if err := b.Free(j); err != nil {
				return err
			}
		}
		tAI += time.Since(t0)
		return nil
	}); err != nil {
		return nil, err
	}
	add("Pbox:AtomicInit (8 B)", tAI, aiOps)

	tAI = 0
	if err := batchTx(aiOps, perTx, func(j *core.Journal[microTag], n int) error {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			r, err := core.NewPrc[int64, microTag](j, int64(k))
			if err != nil {
				return err
			}
			if err := r.Drop(j); err != nil {
				return err
			}
		}
		tAI += time.Since(t0)
		return nil
	}); err != nil {
		return nil, err
	}
	add("Prc:AtomicInit (8 B)", tAI, aiOps)

	tAI = 0
	if err := batchTx(aiOps, perTx, func(j *core.Journal[microTag], n int) error {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			r, err := core.NewParc[int64, microTag](j, int64(k))
			if err != nil {
				return err
			}
			if err := r.Drop(j); err != nil {
				return err
			}
		}
		tAI += time.Since(t0)
		return nil
	}); err != nil {
		return nil, err
	}
	add("Parc:AtomicInit (8 B)", tAI, aiOps)

	// TxNop: an empty transaction writes nothing to PM.
	start = time.Now()
	for i := 0; i < ops; i++ {
		if err := core.Transaction[microTag](func(*core.Journal[microTag]) error { return nil }); err != nil {
			return nil, err
		}
	}
	add("TxNop", time.Since(start), ops)

	// DataLog at the paper's sizes.
	for _, size := range []uint64{8, 1024, 4096} {
		n := ops / 20
		var total time.Duration
		if err := dataLogBench(size, n, &total); err != nil {
			return nil, err
		}
		results = append(results, MicroResult{
			Op:    fmt.Sprintf("DataLog (%s)", sizeLabel(size)),
			AvgNs: float64(total.Nanoseconds()) / float64(n),
		})
	}

	// DropLog is constant-time regardless of size.
	for _, size := range []uint64{8, 32 << 10} {
		n := ops / 20
		var total time.Duration
		if err := dropLogBench(size, n, &total); err != nil {
			return nil, err
		}
		results = append(results, MicroResult{
			Op:    fmt.Sprintf("DropLog (%s)", sizeLabel(size)),
			AvgNs: float64(total.Nanoseconds()) / float64(n),
		})
	}

	// Reference-count operations.
	rcResults, err := rcOps(ops / 10)
	if err != nil {
		return nil, err
	}
	results = append(results, rcResults...)
	return dedupResults(results), nil
}

func sizeLabel(size uint64) string {
	switch {
	case size >= 1<<10 && size%(1<<10) == 0:
		return fmt.Sprintf("%d kB", size>>10)
	default:
		return fmt.Sprintf("%d B", size)
	}
}

// batchTx runs total iterations in transactions of perTx each.
func batchTx(total, perTx int, body func(j *core.Journal[microTag], n int) error) error {
	for done := 0; done < total; done += perTx {
		n := perTx
		if total-done < n {
			n = total - done
		}
		if err := core.Transaction[microTag](func(j *core.Journal[microTag]) error {
			return body(j, n)
		}); err != nil {
			return err
		}
	}
	return nil
}

// allocDealloc measures the raw buddy allocator under a profile.
func allocDealloc(prof pmem.Profile, size uint64, n int) (allocNs, freeNs float64, err error) {
	heap := uint64(64 << 20)
	meta := alloc.MetaSize(heap)
	dev := pmem.New(int(meta+heap), pmem.Options{Profile: prof})
	arena := alloc.Format(dev, 0, meta, heap)
	offs := make([]uint64, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		off, err := arena.Alloc(size)
		if err != nil {
			return 0, 0, err
		}
		offs = append(offs, off)
	}
	tAlloc := time.Since(t0)
	t1 := time.Now()
	for _, off := range offs {
		if err := arena.Free(off, size); err != nil {
			return 0, 0, err
		}
	}
	tFree := time.Since(t1)
	return float64(tAlloc.Nanoseconds()) / float64(n), float64(tFree.Nanoseconds()) / float64(n), nil
}

func dataLogBench(size uint64, n int, total *time.Duration) error {
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
			t0 := time.Now()
			if err := j.Inner().DataLog(off, size); err != nil {
				return err
			}
			*total += time.Since(t0)
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

func dropLogBench(size uint64, n int, total *time.Duration) error {
	const perTx = 16
	return batchTx(n, perTx, func(j *core.Journal[microTag], cnt int) error {
		for k := 0; k < cnt; k++ {
			off, err := j.Inner().Alloc(size)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := j.Inner().DropLog(off, size); err != nil {
				return err
			}
			*total += time.Since(t0)
		}
		return nil
	})
}

// rcOps measures clone/downgrade/upgrade/demote/promote for Prc and Parc,
// and Pbox.pclone.
func rcOps(n int) ([]MicroResult, error) {
	var out []MicroResult
	measure := func(op string, total time.Duration, count int) {
		out = append(out, MicroResult{Op: op, AvgNs: float64(total.Nanoseconds()) / float64(count)})
	}
	const perTx = 64

	// Pbox::pclone = allocation + copy.
	var total time.Duration
	if err := batchTx(n, perTx, func(j *core.Journal[microTag], cnt int) error {
		b, err := core.NewPBox[int64, microTag](j, 7)
		if err != nil {
			return err
		}
		for k := 0; k < cnt; k++ {
			t0 := time.Now()
			c, err := b.PClone(j)
			if err != nil {
				return err
			}
			total += time.Since(t0)
			if err := c.Free(j); err != nil {
				return err
			}
		}
		return b.Free(j)
	}); err != nil {
		return nil, err
	}
	measure("Pbox::pclone (8 B)", total, n)

	// Prc operations.
	var prc core.Prc[int64, microTag]
	if err := core.Transaction[microTag](func(j *core.Journal[microTag]) error {
		var err error
		prc, err = core.NewPrc[int64, microTag](j, 7)
		return err
	}); err != nil {
		return nil, err
	}
	var tClone, tDown, tUp, tDemote, tPromote time.Duration
	if err := batchTx(n, perTx, func(j *core.Journal[microTag], cnt int) error {
		for k := 0; k < cnt; k++ {
			t0 := time.Now()
			c, err := prc.PClone(j)
			if err != nil {
				return err
			}
			tClone += time.Since(t0)
			t0 = time.Now()
			w, err := c.Downgrade(j)
			if err != nil {
				return err
			}
			tDown += time.Since(t0)
			t0 = time.Now()
			s, ok, err := w.Upgrade(j)
			if err != nil || !ok {
				return fmt.Errorf("upgrade failed: %v", err)
			}
			tUp += time.Since(t0)
			t0 = time.Now()
			v := c.Demote()
			tDemote += time.Since(t0)
			t0 = time.Now()
			s2, ok, err := v.Promote(j)
			if err != nil || !ok {
				return fmt.Errorf("promote failed: %v", err)
			}
			tPromote += time.Since(t0)
			for _, d := range []core.Prc[int64, microTag]{c, s, s2} {
				if err := d.Drop(j); err != nil {
					return err
				}
			}
			if err := w.Drop(j); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	measure("Prc::pclone", tClone, n)
	measure("Prc::downgrade", tDown, n)
	measure("Prc::PWeak:upgrade", tUp, n)
	measure("Prc::demote", tDemote, n)
	measure("Prc::VWeak::promote", tPromote, n)

	// Parc operations (thread-safe: logged under the counter lock).
	var parc core.Parc[int64, microTag]
	if err := core.Transaction[microTag](func(j *core.Journal[microTag]) error {
		var err error
		parc, err = core.NewParc[int64, microTag](j, 7)
		return err
	}); err != nil {
		return nil, err
	}
	tClone, tDown, tUp, tDemote, tPromote = 0, 0, 0, 0, 0
	if err := batchTx(n, perTx, func(j *core.Journal[microTag], cnt int) error {
		for k := 0; k < cnt; k++ {
			t0 := time.Now()
			c, err := parc.PClone(j)
			if err != nil {
				return err
			}
			tClone += time.Since(t0)
			t0 = time.Now()
			w, err := c.Downgrade(j)
			if err != nil {
				return err
			}
			tDown += time.Since(t0)
			t0 = time.Now()
			s, ok, err := w.Upgrade(j)
			if err != nil || !ok {
				return fmt.Errorf("upgrade failed: %v", err)
			}
			tUp += time.Since(t0)
			t0 = time.Now()
			v := c.Demote()
			tDemote += time.Since(t0)
			t0 = time.Now()
			s2, ok, err := v.Promote(j)
			if err != nil || !ok {
				return fmt.Errorf("promote failed: %v", err)
			}
			tPromote += time.Since(t0)
			for _, d := range []core.Parc[int64, microTag]{c, s, s2} {
				if err := d.Drop(j); err != nil {
					return err
				}
			}
			if err := w.Drop(j); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	measure("Parc::pclone", tClone, n)
	measure("Parc::downgrade", tDown, n)
	measure("Parc::PWeak::upgrade", tUp, n)
	measure("Parc::demote", tDemote, n)
	measure("Parc::VWeak::promote", tPromote, n)
	return out, nil
}

func dedupResults(in []MicroResult) []MicroResult {
	seen := map[string]bool{}
	var out []MicroResult
	for _, r := range in {
		if seen[r.Op] {
			continue
		}
		seen[r.Op] = true
		out = append(out, r)
	}
	return out
}
