// Package core is the Corundum library itself: typed persistent memory
// pools, failure-atomic transactions, and the persistent smart pointer and
// wrapper family (PBox, Prc, Parc, PWeak, VWeak, PCell, PRefCell, PMutex,
// PString, PVec).
//
// # Pool tags
//
// As in the paper, every persistent type is parameterized by a pool type.
// Programs declare one empty struct per pool —
//
//	type AppPool struct{}
//
// — and use it as the P type argument everywhere: PBox[int, AppPool],
// Transaction[AppPool], and so on. Because PBox[T, P1] and PBox[T, P2] are
// distinct Go types, assigning a pointer from one pool into another is a
// compile error, exactly reproducing the paper's static inter-pool
// guarantee (Design Goal 2). At most one open pool is bound to a tag at a
// time.
//
// # Journals and transactions
//
// All mutation of persistent state requires a *Journal[P], and journals
// exist only as arguments to the function passed to Transaction. This is
// the TX-Journal-Only invariant: it makes unlogged persistent updates
// impossible through the typed API, and it scopes every mutable reference
// to a transaction (Mutable-In-Tx-Only).
package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sync"
	"unsafe"

	"corundum/internal/journal"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// Config mirrors pool.Config for pool creation.
type Config = pool.Config

// Errors surfaced by the typed layer.
var (
	// ErrPoolBound reports that the pool tag is already bound to an open pool.
	ErrPoolBound = errors.New("corundum: pool tag already bound to an open pool")
	// ErrPoolNotOpen reports an operation on a tag with no open pool.
	ErrPoolNotOpen = errors.New("corundum: no open pool bound to this tag")
	// ErrClosed mirrors pool.ErrClosed.
	ErrClosed = pool.ErrClosed
)

// poolState is the volatile side of one open pool: the pool itself plus
// the lock and borrow tables for PMutex/PRefCell (which must reset across
// crashes, so they cannot live in PM).
type poolState struct {
	pool    *pool.Pool
	dev     *pmem.Device
	gen     uint64
	locks   sync.Map // offset -> *sync.Mutex  (PMutex, Parc counters)
	borrows sync.Map // offset -> *borrowState (PRefCell)
}

var registry sync.Map // reflect.Type (pool tag) -> *poolState

func tagType[P any]() reflect.Type {
	return reflect.TypeOf((*P)(nil)).Elem()
}

func stateOf[P any]() (*poolState, error) {
	v, ok := registry.Load(tagType[P]())
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrPoolNotOpen, tagType[P]())
	}
	return v.(*poolState), nil
}

func mustState[P any]() *poolState {
	st, err := stateOf[P]()
	if err != nil {
		panic(err)
	}
	return st
}

// typeHash fingerprints the root type so reopening a pool with a different
// root type is detected (the paper's typed root pointer).
func typeHash(t reflect.Type) uint64 {
	h := fnv.New64a()
	h.Write([]byte(t.String()))
	h.Write([]byte(layoutSignature(t)))
	return h.Sum64()
}

// layoutSignature captures field offsets and sizes, so layout-incompatible
// recompilations are caught, not just renames.
func layoutSignature(t reflect.Type) string {
	s := fmt.Sprintf("%d:", t.Size())
	if t.Kind() == reflect.Struct {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			s += fmt.Sprintf("%s@%d/%d;", f.Name, f.Offset, f.Type.Size())
		}
	}
	return s
}

// Root is the immutable reference to a pool's root object that Open
// returns. As in the paper, the root reference itself is read-only; all
// mutation goes through interior-mutability wrappers inside T.
type Root[T any, P any] struct {
	off uint64
}

// Deref returns a read-only view of the root object.
func (r Root[T, P]) Deref() *T {
	st := mustState[P]()
	return derefAt[T](st, r.off)
}

// Offset exposes the root's pool offset (used by diagnostics and tests).
func (r Root[T, P]) Offset() uint64 { return r.off }

// Open binds pool tag P to the pool in the file at path, creating and
// formatting it if it does not exist, and returns the typed root pointer.
// A fresh pool gets a zero-valued T as its root, allocated in an initial
// transaction. Opening fails if P is already bound (the paper allows one
// open pool per pool type), if the file is not a pool, or if it was
// created with a different root type.
//
// An empty path creates an anonymous in-memory pool (tests, benchmarks).
func Open[T any, P any](path string, cfg Config) (Root[T, P], error) {
	mustPSafe[T]()
	tag := tagType[P]()
	st := &poolState{}
	if _, loaded := registry.LoadOrStore(tag, st); loaded {
		return Root[T, P]{}, fmt.Errorf("%w: %s", ErrPoolBound, tag)
	}
	success := false
	defer func() {
		if !success {
			registry.Delete(tag)
		}
	}()

	var (
		p   *pool.Pool
		err error
	)
	if path == "" {
		p, err = pool.Create("", cfg)
	} else if _, statErr := os.Stat(path); statErr == nil {
		p, err = pool.Open(path, cfg.Mem)
	} else {
		p, err = pool.Create(path, cfg)
	}
	if err != nil {
		return Root[T, P]{}, err
	}
	st.pool = p
	st.dev = p.Device()
	st.gen = p.Generation()

	rootT := reflect.TypeOf((*T)(nil)).Elem()
	wantHash := typeHash(rootT)
	if p.RootOff() != 0 {
		if p.RootTypeHash() != wantHash {
			p.Close()
			return Root[T, P]{}, fmt.Errorf("%w: pool %q", pool.ErrWrongRoot, path)
		}
		success = true
		return Root[T, P]{off: p.RootOff()}, nil
	}

	// Fresh pool: allocate a zeroed root inside a transaction.
	var rootOff uint64
	err = p.Transaction(func(j *journal.Journal) error {
		off, err := j.Alloc(sizeOf[T]())
		if err != nil {
			return err
		}
		st.dev.StoreBytes(off, make([]byte, sizeOf[T]()))
		st.dev.Persist(off, sizeOf[T]())
		rootOff = off
		return p.SetRoot(j, off, wantHash)
	})
	if err != nil {
		p.Close()
		return Root[T, P]{}, err
	}
	success = true
	return Root[T, P]{off: rootOff}, nil
}

// ClosePool closes the pool bound to P and unbinds the tag. Transactions
// in flight must have finished. After closing, VWeak pointers into the
// pool no longer promote, and Transaction on P fails — the two dynamic
// halves of the paper's pool-closure safety story.
func ClosePool[P any]() error {
	tag := tagType[P]()
	v, ok := registry.Load(tag)
	if !ok {
		return fmt.Errorf("%w: %s", ErrPoolNotOpen, tag)
	}
	st := v.(*poolState)
	registry.Delete(tag)
	return st.pool.Close()
}

// Journal is the typed capability for mutating pool P, passed to the body
// of Transaction and unobtainable anywhere else (Invariant TX-Journal-Only).
type Journal[P any] struct {
	inner *journal.Journal
	st    *poolState
}

// Transaction runs body atomically on pool P. All updates made through the
// journal are undo-logged and either commit together or roll back together
// on error, panic, or crash (Design Goal 3). Code that should join the
// caller's transaction takes the caller's j; calling Transaction on the
// same pool from inside body opens a second, independent transaction on
// its own journal slot (pmcheck PM007). Nesting transactions on two
// different pools is fine.
func Transaction[P any](body func(j *Journal[P]) error) error {
	st, err := stateOf[P]()
	if err != nil {
		return err
	}
	return st.pool.Transaction(func(ij *journal.Journal) error {
		return body(&Journal[P]{inner: ij, st: st})
	})
}

// Inner exposes the untyped journal for the engine adapters; applications
// have no reason to call it.
func (j *Journal[P]) Inner() *journal.Journal { return j.inner }

// Pool statistics and maintenance helpers.

// PoolStats reports volatile statistics for the pool bound to P.
type PoolStats struct {
	InUse      uint64
	FreeBytes  uint64
	Generation uint64
	Journals   int
}

// StatsOf returns statistics for the pool bound to P.
func StatsOf[P any]() (PoolStats, error) {
	st, err := stateOf[P]()
	if err != nil {
		return PoolStats{}, err
	}
	return PoolStats{
		InUse:      st.pool.InUse(),
		FreeBytes:  st.pool.FreeBytes(),
		Generation: st.gen,
		Journals:   st.pool.Journals(),
	}, nil
}

// sizeOf returns T's in-memory (and in-pool) size.
func sizeOf[T any]() uint64 {
	var zero T
	return uint64(unsafe.Sizeof(zero))
}

// derefAt returns a typed pointer directly into the pool arena, the
// DAX-style zero-copy access the paper measures at sub-nanosecond cost.
// It and offsetOf are Device.UnsafeAddr's only users: stores through the
// pointer are invisible to the device until the journal's commit marks
// and flushes the range their DataLog named (Device.FlushUnsafe).
func derefAt[T any](st *poolState, off uint64) *T {
	if off == 0 {
		panic("corundum: nil persistent pointer dereference")
	}
	return (*T)(st.dev.UnsafeAddr(off))
}

// bytesOf views v's memory as a byte slice for initializing allocations.
func bytesOf[T any](v *T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(v)), unsafe.Sizeof(*v))
}

// DeviceOf exposes the emulated device backing P's pool, for crash
// injection in demos and tests.
func DeviceOf[P any]() *pmem.Device { return mustState[P]().dev }

// Adopt binds tag P to an already-recovered pool — typically the result
// of pool.Attach after a simulated crash — and returns the typed root. It
// verifies the recorded root type, like Open.
func Adopt[T any, P any](p *pool.Pool) (Root[T, P], error) {
	mustPSafe[T]()
	tag := tagType[P]()
	st := &poolState{pool: p, dev: p.Device(), gen: p.Generation()}
	if _, loaded := registry.LoadOrStore(tag, st); loaded {
		return Root[T, P]{}, fmt.Errorf("%w: %s", ErrPoolBound, tag)
	}
	rootT := reflect.TypeOf((*T)(nil)).Elem()
	if p.RootOff() == 0 || p.RootTypeHash() != typeHash(rootT) {
		registry.Delete(tag)
		return Root[T, P]{}, pool.ErrWrongRoot
	}
	return Root[T, P]{off: p.RootOff()}, nil
}
