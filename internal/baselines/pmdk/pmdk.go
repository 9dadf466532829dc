// Package pmdk models Intel's libpmemobj: explicit transactions with
// undo logging (TX_ADD snapshots a range once per transaction via its
// range tree), a transactional allocator, and per-transaction lane
// acquisition. Relative to Corundum the model pays extra persists for lane
// bookkeeping and allocation publication, which is where libpmemobj spends
// time the paper's Figure 1 shows Corundum avoiding.
package pmdk

import (
	"encoding/binary"

	"corundum/internal/baselines/common"
	"corundum/internal/baselines/engine"
	"corundum/internal/pmem"
)

// Lib is the libpmemobj model.
type Lib struct{}

// Name implements engine.Lib.
func (Lib) Name() string { return "PMDK" }

// Open implements engine.Lib.
func (Lib) Open(cfg engine.Config) (engine.Pool, error) {
	base, err := common.OpenBase(cfg, 1<<20)
	if err != nil {
		return nil, err
	}
	return &enginePool{base: base}, nil
}

type enginePool struct {
	base *common.BasePool
}

func (p *enginePool) Root() uint64         { return p.base.Root() }
func (p *enginePool) Device() *pmem.Device { return p.base.Dev }
func (p *enginePool) Close() error         { return p.base.Close() }

func (p *enginePool) Tx(body func(tx engine.Tx) error) error {
	p.base.Mu.Lock()
	defer p.base.Mu.Unlock()
	// Lane acquisition: libpmemobj claims a lane and persists its state
	// before the first operation.
	p.base.Dev.Write(p.base.LogOff, []byte{1})
	p.base.Dev.Persist(p.base.LogOff, 1)

	t := &tx{base: p.base, log: common.NewUndoLog(p.base, true, false)}
	if err := body(t); err != nil {
		t.log.Abort()
		return err
	}
	t.log.Commit()
	// Deferred frees apply after the commit record, as pmemobj does.
	for _, f := range t.frees {
		if err := p.base.Arena.Free(f.off, f.size); err != nil {
			return err
		}
	}
	return nil
}

type pendingFree struct{ off, size uint64 }

type tx struct {
	base  *common.BasePool
	log   *common.UndoLog
	frees []pendingFree
}

func (t *tx) Alloc(size uint64) (uint64, error) {
	off, err := t.base.Arena.Alloc(size)
	if err != nil {
		return 0, err
	}
	// Publication: pmemobj persists a reservation record tying the
	// allocation to the transaction (an extra persist Corundum folds into
	// the allocator's own redo batch).
	var rec [16]byte
	binary.LittleEndian.PutUint64(rec[0:], off)
	binary.LittleEndian.PutUint64(rec[8:], size)
	t.base.Dev.Write(t.base.LogOff+8, rec[:])
	t.base.Dev.Persist(t.base.LogOff+8, 16)
	return off, nil
}

func (t *tx) Free(off, size uint64) error {
	t.frees = append(t.frees, pendingFree{off, size})
	return nil
}

func (t *tx) Load(off uint64) uint64 { return t.base.Dev.Load8(off) }

func (t *tx) Store(off, val uint64) error {
	if err := t.log.Log(off, 8); err != nil {
		return err
	}
	t.base.Dev.Store8(off, val)
	t.log.DataWritten(off, 8)
	return nil
}

func (t *tx) StoreBytes(off uint64, data []byte) error {
	if err := t.log.Log(off, uint64(len(data))); err != nil {
		return err
	}
	t.base.Dev.StoreBytes(off, data)
	t.log.DataWritten(off, uint64(len(data)))
	return nil
}

func (t *tx) ReadBytes(off uint64, out []byte) {
	t.base.Dev.LoadBytes(off, out)
}

func (t *tx) SetRoot(off uint64) error { return t.Store(t.base.RootSlot(), off) }
