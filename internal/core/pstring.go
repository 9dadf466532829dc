package core

import "unsafe"

// PString is a persistent string: a length and a pointer to pool-resident
// bytes. Go strings are !PSafe (their data lives on the volatile heap);
// PString is the persistent replacement, as PVec is for slices. The zero
// value is the empty string.
type PString[P any] struct {
	data uint64
	size uint64
}

// NewPString copies s into pool P failure-atomically.
func NewPString[P any](j *Journal[P], s string) (PString[P], error) {
	if len(s) == 0 {
		return PString[P]{}, nil
	}
	off, err := j.inner.AllocInit([]byte(s))
	if err != nil {
		return PString[P]{}, err
	}
	return PString[P]{data: off, size: uint64(len(s))}, nil
}

// Len returns the string length in bytes.
func (s PString[P]) Len() int { return int(s.size) }

// String copies the persistent bytes into a volatile Go string.
func (s PString[P]) String() string {
	if s.size == 0 {
		return ""
	}
	return string(unsafe.Slice(derefAt[byte](mustState[P](), s.data), s.size))
}

// StringJ is String using the transaction's pool handle.
func (s PString[P]) StringJ(j *Journal[P]) string {
	if s.size == 0 {
		return ""
	}
	return string(unsafe.Slice(derefAt[byte](j.st, s.data), s.size))
}

// Equal compares against a volatile string without allocating.
func (s PString[P]) Equal(other string) bool {
	if int(s.size) != len(other) {
		return false
	}
	if s.size == 0 {
		return true
	}
	return unsafe.String(derefAt[byte](mustState[P](), s.data), int(s.size)) == other
}

// Free schedules the string's storage for deallocation at commit.
func (s PString[P]) Free(j *Journal[P]) error {
	if s.size == 0 {
		return nil
	}
	return j.inner.DropLog(s.data, s.size)
}
