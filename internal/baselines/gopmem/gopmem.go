// Package gopmem models VMware's go-pmem: transactions with undo logging
// inserted per store by the compiler (no range deduplication), plus
// garbage collection instead of explicit deallocation — Free is a no-op
// and a stop-the-world sweep runs periodically, whose pause scales with
// the heap. The extra per-store logging and GC pauses are why go-pmem
// trails Corundum on insert-heavy workloads in Figure 1.
package gopmem

import (
	"time"

	"corundum/internal/baselines/common"
	"corundum/internal/baselines/engine"
	"corundum/internal/pmem"
)

// storeBarrier models go-pmem's compiler-inserted per-store undo logging
// hook (txn() blocks rewrite every store into a runtime call that logs,
// swizzles, and then writes; there is no range deduplication). Calibrated
// against the go-pmem-vs-PMDK ratios in the paper's Figure 1.
const storeBarrier = 600 * time.Nanosecond

// gcInterval is how many allocations happen between stop-the-world sweeps.
const gcInterval = 512

// Lib is the go-pmem model.
type Lib struct{}

// Name implements engine.Lib.
func (Lib) Name() string { return "go-pmem" }

// Open implements engine.Lib.
func (Lib) Open(cfg engine.Config) (engine.Pool, error) {
	base, err := common.OpenBase(cfg, 4<<20)
	if err != nil {
		return nil, err
	}
	return &enginePool{base: base}, nil
}

type enginePool struct {
	base       *common.BasePool
	allocCount int
	garbage    []pendingFree // blocks awaiting the next GC cycle
}

func (p *enginePool) Root() uint64         { return p.base.Root() }
func (p *enginePool) Device() *pmem.Device { return p.base.Dev }
func (p *enginePool) Close() error         { return p.base.Close() }

func (p *enginePool) Tx(body func(tx engine.Tx) error) error {
	p.base.Mu.Lock()
	defer p.base.Mu.Unlock()
	t := &tx{pool: p, log: common.NewUndoLog(p.base, false, false)}
	if err := body(t); err != nil {
		t.log.Abort()
		return err
	}
	t.log.Commit()
	p.garbage = append(p.garbage, t.unreferenced...)
	return nil
}

// gcSweep models go-pmem's stop-the-world heap scan: it touches the whole
// order map (time proportional to heap size) and then reclaims garbage.
func (p *enginePool) gcSweep() {
	var sum uint64
	for off := uint64(0); off < uint64(p.base.Dev.Size()/64); off += 8 { // scan metadata-sized fraction
		sum ^= p.base.Dev.Load8(off)
	}
	_ = sum
	for _, g := range p.garbage {
		_ = p.base.Arena.Free(g.off, g.size)
	}
	p.garbage = p.garbage[:0]
	p.base.Dev.Fence()
}

type pendingFree struct{ off, size uint64 }

type tx struct {
	pool         *enginePool
	log          *common.UndoLog
	unreferenced []pendingFree
}

func (t *tx) Alloc(size uint64) (uint64, error) {
	t.pool.allocCount++
	if t.pool.allocCount%gcInterval == 0 {
		t.pool.gcSweep()
	}
	return t.pool.base.Arena.Alloc(size)
}

// Free only records that the block became unreferenced; reclamation waits
// for the collector.
func (t *tx) Free(off, size uint64) error {
	t.unreferenced = append(t.unreferenced, pendingFree{off, size})
	return nil
}

func (t *tx) Load(off uint64) uint64 { return t.pool.base.Dev.Load8(off) }

func (t *tx) Store(off, val uint64) error {
	pmem.Busy(storeBarrier)
	if err := t.log.Log(off, 8); err != nil {
		return err
	}
	t.pool.base.Dev.Store8(off, val)
	t.log.DataWritten(off, 8)
	return nil
}

func (t *tx) StoreBytes(off uint64, data []byte) error {
	if err := t.log.Log(off, uint64(len(data))); err != nil {
		return err
	}
	t.pool.base.Dev.StoreBytes(off, data)
	t.log.DataWritten(off, uint64(len(data)))
	return nil
}

func (t *tx) ReadBytes(off uint64, out []byte) {
	t.pool.base.Dev.LoadBytes(off, out)
}

func (t *tx) SetRoot(off uint64) error { return t.Store(t.pool.base.RootSlot(), off) }
