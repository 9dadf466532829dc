package core

import (
	"fmt"
	"unsafe"
)

// PVec is a persistent growable array of PSafe elements, the pool-resident
// replacement for Go slices (which are !PSafe). It is embedded by value in
// persistent structs; its backing storage is a pool allocation that is
// reallocated on growth, with the old block drop-logged so growth is
// failure-atomic: an aborted transaction keeps the old storage, a committed
// one frees it.
type PVec[T any, P any] struct {
	data uint64
	len  uint64
	cap  uint64
}

// Len returns the number of elements.
func (v *PVec[T, P]) Len() int { return int(v.len) }

// Cap returns the capacity of the backing storage.
func (v *PVec[T, P]) Cap() int { return int(v.cap) }

func (v *PVec[T, P]) elemOff(i uint64) uint64 {
	return v.data + i*sizeOf[T]()
}

// At returns a read-only pointer to element i (zero-copy).
func (v *PVec[T, P]) At(i int) *T {
	v.check(i)
	return derefAt[T](mustState[P](), v.elemOff(uint64(i)))
}

// Get returns a copy of element i.
func (v *PVec[T, P]) Get(i int) T { return *v.At(i) }

// AtJ is At using the transaction's pool handle.
func (v *PVec[T, P]) AtJ(j *Journal[P], i int) *T {
	v.check(i)
	return derefAt[T](j.st, v.elemOff(uint64(i)))
}

func (v *PVec[T, P]) check(i int) {
	if i < 0 || uint64(i) >= v.len {
		panic(fmt.Sprintf("corundum: PVec index %d out of range [0,%d)", i, v.len))
	}
}

// logHeader undo-logs the vector header (data/len/cap) itself.
func (v *PVec[T, P]) logHeader(j *Journal[P]) error {
	off := j.st.offsetOf(unsafe.Pointer(v))
	return j.inner.DataLog(off, uint64(unsafe.Sizeof(*v)))
}

// Push appends val, growing the backing storage when full.
func (v *PVec[T, P]) Push(j *Journal[P], val T) error {
	mustPSafe[T]()
	if err := v.logHeader(j); err != nil {
		return err
	}
	if v.len == v.cap {
		if err := v.grow(j); err != nil {
			return err
		}
	}
	slot := v.elemOff(v.len)
	if err := j.inner.DataLog(slot, sizeOf[T]()); err != nil {
		return err
	}
	*derefAt[T](j.st, slot) = val
	v.len++
	return nil
}

// grow doubles capacity (minimum 4): allocate, copy, drop the old block.
func (v *PVec[T, P]) grow(j *Journal[P]) error {
	newCap := v.cap * 2
	if newCap < 4 {
		newCap = 4
	}
	size := sizeOf[T]()
	payload := make([]byte, newCap*size)
	if v.len > 0 {
		j.st.dev.LoadBytes(v.data, payload[:v.len*size])
	}
	newData, err := j.inner.AllocInit(payload)
	if err != nil {
		return err
	}
	if v.data != 0 {
		if err := j.inner.DropLog(v.data, v.cap*size); err != nil {
			return err
		}
	}
	v.data = newData
	v.cap = newCap
	return nil
}

// Set replaces element i, undo-logged.
func (v *PVec[T, P]) Set(j *Journal[P], i int, val T) error {
	v.check(i)
	slot := v.elemOff(uint64(i))
	if err := j.inner.DataLog(slot, sizeOf[T]()); err != nil {
		return err
	}
	*derefAt[T](j.st, slot) = val
	return nil
}

// Pop removes and returns the last element.
func (v *PVec[T, P]) Pop(j *Journal[P]) (T, bool, error) {
	var zero T
	if v.len == 0 {
		return zero, false, nil
	}
	if err := v.logHeader(j); err != nil {
		return zero, false, err
	}
	v.len--
	return *derefAt[T](j.st, v.elemOff(v.len)), true, nil
}

// Truncate shrinks the vector to n elements (no reallocation).
func (v *PVec[T, P]) Truncate(j *Journal[P], n int) error {
	if n < 0 || uint64(n) > v.len {
		panic(fmt.Sprintf("corundum: PVec truncate to %d of %d", n, v.len))
	}
	if err := v.logHeader(j); err != nil {
		return err
	}
	v.len = uint64(n)
	return nil
}

// Range calls f for each element until f returns false.
func (v *PVec[T, P]) Range(f func(i int, val *T) bool) {
	st := mustState[P]()
	for i := uint64(0); i < v.len; i++ {
		if !f(int(i), derefAt[T](st, v.elemOff(i))) {
			return
		}
	}
}

// Free drops every element's contents (via PDrop) and schedules the
// backing storage for deallocation.
func (v *PVec[T, P]) Free(j *Journal[P]) error {
	for i := uint64(0); i < v.len; i++ {
		if err := dropContents(j, derefAt[T](j.st, v.elemOff(i))); err != nil {
			return err
		}
	}
	if v.data == 0 {
		return nil
	}
	if err := v.logHeader(j); err != nil {
		return err
	}
	if err := j.inner.DropLog(v.data, v.cap*sizeOf[T]()); err != nil {
		return err
	}
	v.data, v.len, v.cap = 0, 0, 0
	return nil
}
