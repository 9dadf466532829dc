package core

import (
	"sync"
	"unsafe"
)

// PCell provides interior mutability by copying values in and out of PM,
// like the paper's PCell (and Rust's Cell). It is embedded by value inside
// other persistent structs; it owns no allocation of its own.
type PCell[T any, P any] struct {
	value T
}

// NewPCell returns a cell initialized to val (for use in struct literals
// passed to NewPBox and friends).
func NewPCell[T any, P any](val T) PCell[T, P] { return PCell[T, P]{value: val} }

// Get returns a copy of the cell's value. Reads need no transaction.
func (c *PCell[T, P]) Get() T { return c.value }

// Set replaces the value inside transaction j, undo-logged.
func (c *PCell[T, P]) Set(j *Journal[P], val T) error {
	off := j.st.offsetOf(unsafe.Pointer(c))
	if err := j.inner.DataLog(off, sizeOf[T]()); err != nil {
		return err
	}
	c.value = val
	return nil
}

// Update applies f to the value atomically within the transaction.
func (c *PCell[T, P]) Update(j *Journal[P], f func(T) T) error {
	return c.Set(j, f(c.value))
}

// borrowState is the volatile dynamic-borrow bookkeeping for one PRefCell.
// Borrow flags reset on restart simply by living in DRAM, which is why
// they are not stored next to the value.
type borrowState struct {
	mu      sync.Mutex
	readers int
	writer  bool
}

func borrowOf(st *poolState, off uint64) *borrowState {
	bAny, _ := st.borrows.LoadOrStore(off, &borrowState{})
	return bAny.(*borrowState)
}

// PRefCell provides interior mutability through references with dynamic
// borrow checking: any number of simultaneous readers or one writer,
// enforced at runtime with a panic on violation — the same discipline
// Rust's RefCell (and the paper's PRefCell) enforces.
type PRefCell[T any, P any] struct {
	value T
}

// NewPRefCell returns a cell initialized to val.
func NewPRefCell[T any, P any](val T) PRefCell[T, P] { return PRefCell[T, P]{value: val} }

// Ref is a released-explicitly immutable borrow of a PRefCell.
type Ref[T any, P any] struct {
	v  *T
	bs *borrowState
}

// Value returns the borrowed view. It panics after Drop.
func (r *Ref[T, P]) Value() *T {
	if r.v == nil {
		panic("corundum: use of dropped Ref")
	}
	return r.v
}

// Drop releases the borrow. Dropping twice is a no-op.
func (r *Ref[T, P]) Drop() {
	if r.v == nil {
		return
	}
	r.bs.mu.Lock()
	r.bs.readers--
	r.bs.mu.Unlock()
	r.v = nil
}

// RefMut is a mutable borrow of a PRefCell, released by Drop or, as a
// safety net, at the end of the transaction that created it (the paper's
// stranded reference objects cannot outlive their transaction).
type RefMut[T any, P any] struct {
	v  *T
	bs *borrowState
}

// Value returns the mutable view. It panics after Drop.
func (r *RefMut[T, P]) Value() *T {
	if r.v == nil {
		panic("corundum: use of dropped RefMut")
	}
	return r.v
}

// Drop releases the borrow early (end of lexical scope in Rust terms).
func (r *RefMut[T, P]) Drop() {
	if r.v == nil {
		return
	}
	r.bs.mu.Lock()
	r.bs.writer = false
	r.bs.mu.Unlock()
	r.v = nil
}

// Borrow takes an immutable borrow. It panics if a mutable borrow is
// active, mirroring RefCell::borrow. Callers release it with Drop
// (typically deferred).
func (c *PRefCell[T, P]) Borrow() *Ref[T, P] {
	st := mustState[P]()
	off := st.offsetOf(unsafe.Pointer(c))
	bs := borrowOf(st, off)
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.writer {
		panic("corundum: PRefCell already mutably borrowed")
	}
	bs.readers++
	return &Ref[T, P]{v: &c.value, bs: bs}
}

// BorrowMut takes the mutable borrow, undo-logging the cell first — this
// is where the paper's "logging only happens when the reference object is
// dereferenced" cost lands. It panics if any borrow is active. The borrow
// is released by Drop or automatically when the transaction ends.
func (c *PRefCell[T, P]) BorrowMut(j *Journal[P]) (*RefMut[T, P], error) {
	off := j.st.offsetOf(unsafe.Pointer(c))
	bs := borrowOf(j.st, off)
	bs.mu.Lock()
	if bs.writer || bs.readers > 0 {
		bs.mu.Unlock()
		panic("corundum: PRefCell already borrowed")
	}
	bs.writer = true
	bs.mu.Unlock()
	if err := j.inner.DataLog(off, sizeOf[T]()); err != nil {
		bs.mu.Lock()
		bs.writer = false
		bs.mu.Unlock()
		return nil, err
	}
	rm := &RefMut[T, P]{v: &c.value, bs: bs}
	j.inner.Defer(rm.Drop) // stranded: cannot outlive the transaction
	return rm, nil
}

// Read returns a copy of the value without taking a lasting borrow.
func (c *PRefCell[T, P]) Read() T {
	r := c.Borrow()
	defer r.Drop()
	return *r.Value()
}

// offsetOf translates a pointer into the pool arena back to a pool offset;
// the inverse of derefAt for interior-mutability cells embedded in
// persistent structs.
func (st *poolState) offsetOf(p unsafe.Pointer) uint64 {
	base := uintptr(st.dev.UnsafeAddr(0))
	addr := uintptr(p)
	if addr < base || addr >= base+uintptr(st.dev.Size()) {
		panic("corundum: cell is not inside the pool; persistent wrappers must be embedded in pool-resident structs")
	}
	return uint64(addr - base)
}
