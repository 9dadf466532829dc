// Package corundumeng adapts Corundum itself to the engine interface so
// the Figure 1 workloads run on the same code paths the typed library
// uses: per-journal undo logging with first-touch deduplication, drop logs
// applied at commit, and the sharded crash-atomic buddy allocator.
package corundumeng

import (
	"corundum/internal/baselines/engine"
	"corundum/internal/journal"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// Lib is the Corundum engine.
type Lib struct {
	// NoDedup disables the first-touch undo-log deduplication, so every
	// store logs. Used only by the ablation benchmarks.
	NoDedup bool
}

// Name implements engine.Lib.
func (l Lib) Name() string {
	if l.NoDedup {
		return "Corundum-nodedup"
	}
	return "Corundum"
}

// Open implements engine.Lib.
func (l Lib) Open(cfg engine.Config) (engine.Pool, error) {
	// The single-threaded engine workloads need few journals; size the
	// journal area with the pool so small pools keep most of their space
	// as heap while large ones can log big initializations (the KVStore
	// bucket directory is logged as one range).
	journalCap := cfg.Size / 64
	if journalCap < 64<<10 {
		journalCap = 64 << 10
	}
	if journalCap > 1<<20 {
		journalCap = 1 << 20
	}
	p, err := pool.Create("", pool.Config{
		Size:       cfg.Size,
		Journals:   8,
		JournalCap: journalCap,
		Mem:        cfg.Mem,
	})
	if err != nil {
		return nil, err
	}
	return newEnginePool(p, l.NoDedup), nil
}

// Wrap adapts an already-open pool to the engine interface, so workloads
// written against engine.Pool (the KVStore behind corundum-server, the
// Figure 1 structures) can run over a pool the caller created, opened, and
// recovered itself. Closing the returned engine.Pool closes the wrapped
// pool.
func Wrap(p *pool.Pool) engine.Pool { return newEnginePool(p, false) }

type enginePool struct {
	p *pool.Pool
	// txs holds one transaction handle per journal slot. A transaction
	// owns its slot's journal until it ends, so it may use that slot's
	// handle, and opening one allocates nothing.
	txs []tx
}

func newEnginePool(p *pool.Pool, noDedup bool) *enginePool {
	ep := &enginePool{p: p, txs: make([]tx, p.Journals())}
	for i := range ep.txs {
		ep.txs[i] = tx{p: p, noDedup: noDedup}
	}
	return ep
}

func (ep *enginePool) Root() uint64         { return ep.p.RootOff() }
func (ep *enginePool) Device() *pmem.Device { return ep.p.Device() }
func (ep *enginePool) Close() error         { return ep.p.Close() }

func (ep *enginePool) Tx(body func(tx engine.Tx) error) error {
	return ep.p.Transaction(func(j *journal.Journal) error {
		t := &ep.txs[j.Arena()]
		t.j = j
		return body(t)
	})
}

type tx struct {
	p       *pool.Pool
	j       *journal.Journal
	noDedup bool
}

func (t *tx) Alloc(size uint64) (uint64, error) { return t.j.Alloc(size) }

func (t *tx) Free(off, size uint64) error {
	if err := t.p.Writable(); err != nil {
		return err
	}
	return t.j.DropLog(off, size)
}

func (t *tx) Load(off uint64) uint64 {
	return t.p.Device().Load8(off)
}

// Store and StoreBytes check pool writability here, not just in the
// allocator: a degraded pool must reject in-place mutations too, and
// those reach the journal's data log without passing through any
// pool-level entry point.
func (t *tx) Store(off, val uint64) error {
	if err := t.p.Writable(); err != nil {
		return err
	}
	var err error
	if t.noDedup {
		err = t.j.DataLogForce(off, 8)
	} else {
		err = t.j.DataLog(off, 8)
	}
	if err != nil {
		return err
	}
	t.p.Device().Store8(off, val)
	return nil
}

func (t *tx) StoreBytes(off uint64, data []byte) error {
	if err := t.p.Writable(); err != nil {
		return err
	}
	if err := t.j.DataLog(off, uint64(len(data))); err != nil {
		return err
	}
	t.p.Device().StoreBytes(off, data)
	return nil
}

func (t *tx) ReadBytes(off uint64, out []byte) {
	t.p.Device().LoadBytes(off, out)
}

func (t *tx) SetRoot(off uint64) error { return t.p.SetRoot(t.j, off, 0) }
