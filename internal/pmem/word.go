package pmem

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// The methods in this file are the one way into device memory, so a store
// the crash model cannot see does not compile. Stores mark their lines
// dirty as they land and, once power is cut, panic with ErrInjectedCrash
// instead of landing; they are not injection points (OpCount, Stats, the
// op hook and the delays see only Write, Flush and Fence). Loads cost a
// bounds check and a word load, as a cached read does on real PM.
//
// Aligned 8-byte lanes are loaded and stored atomically: seqlock readers
// (pool.ReadView) race committers' stores, and the Go memory model needs
// both sides atomic — the contract real PM gives aligned 8-byte stores.
// The buffer is cache-line aligned (alignedBytes), so an aligned offset
// is an aligned address. Ragged heads and tails, never read lock-free,
// are copied plainly.

// Load8 returns the little-endian word at off.
func (d *Device) Load8(off uint64) uint64 { return Reader{d.buf}.Load8(off) }

// Reader is a read-only window onto the device's memory: Load8 without the
// pointer chase through the Device, for a hot loop (pool.ReadView).
type Reader struct{ buf []byte }

// Reader returns the device's read-only window.
func (d *Device) Reader() Reader { return Reader{d.buf} }

// Load8 is Device.Load8: a slice load's cost, index check included (the
// buffer's length is a multiple of the word, so an aligned word is whole).
func (r Reader) Load8(off uint64) uint64 {
	if off%WordSize == 0 {
		return memWord(atomic.LoadUint64(wordPtr(r.buf, off)))
	}
	return binary.LittleEndian.Uint64(r.buf[off : off+WordSize])
}

// LoadBytes copies len(dst) bytes at off into dst.
func (d *Device) LoadBytes(off uint64, dst []byte) {
	n := uint64(len(dst))
	d.bounds(off, n)
	i := uint64(0)
	if head := off % WordSize; head != 0 {
		i = min(WordSize-head, n)
		copy(dst[:i], d.buf[off:])
	}
	for ; i+WordSize <= n; i += WordSize {
		binary.LittleEndian.PutUint64(dst[i:], memWord(atomic.LoadUint64(wordPtr(d.buf, off+i))))
	}
	if i < n {
		copy(dst[i:], d.buf[off+i:])
	}
}

// Store8 stores val little-endian at off.
func (d *Device) Store8(off, val uint64) {
	var w [WordSize]byte
	binary.LittleEndian.PutUint64(w[:], val)
	d.StoreBytes(off, w[:])
}

// StoreBytes copies src into the device at off.
func (d *Device) StoreBytes(off uint64, src []byte) {
	if len(src) == 0 {
		return
	}
	if d.poisoned.Load() {
		panic(ErrInjectedCrash) // power is off: nothing stores after the cut
	}
	d.bounds(off, uint64(len(src)))
	storeBytes(d.buf, off, src)
	d.markDirty(off, uint64(len(src)))
}

// Copy copies n bytes from src to dst within the device: a load of the
// source, then a store to the destination. The ranges must not overlap.
func (d *Device) Copy(dst, src, n uint64) {
	var buf [256]byte
	for n > 0 {
		c := min(n, uint64(len(buf)))
		d.LoadBytes(src, buf[:c])
		d.StoreBytes(dst, buf[:c])
		dst, src, n = dst+c, src+c, n-c
	}
}

// UnsafeAddr returns the address of the byte at off: the one exception to
// the rule above, for the typed layer (internal/core), which dereferences
// persistent objects in place. Stores through it are invisible to the
// device, so their range must reach FlushUnsafe before it can become
// durable. No other package may call it (arch_test.go).
func (d *Device) UnsafeAddr(off uint64) unsafe.Pointer {
	d.bounds(off, 1)
	return unsafe.Pointer(&d.buf[off])
}

// FlushUnsafe is Flush for a range that may hold stores made through
// UnsafeAddr: it first marks every line of the range dirty, since the
// device never saw those stores.
func (d *Device) FlushUnsafe(off, n uint64) {
	if n > 0 {
		d.markDirty(off, n)
		d.Flush(off, n)
	}
}

func (d *Device) markDirty(off, n uint64) {
	d.bounds(off, n)
	for line := off / CacheLineSize; line <= (off+n-1)/CacheLineSize; line++ {
		d.dirty[line/64].Or(1 << (line % 64))
	}
}

// hostBigEndian is true on big-endian hosts, where the native uint64 view
// of the buffer byte-swaps relative to the little-endian wire format the
// pool uses everywhere; memWord compensates (an involution).
var hostBigEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 0
}()

func memWord(v uint64) uint64 {
	if hostBigEndian {
		return bits.ReverseBytes64(v)
	}
	return v
}

func wordPtr(buf []byte, off uint64) *uint64 {
	return (*uint64)(unsafe.Pointer(&buf[off]))
}

// storeBytes copies data into buf[off:], one atomic store per aligned
// 8-byte lane.
func storeBytes(buf []byte, off uint64, data []byte) {
	n := uint64(len(data))
	i := uint64(0)
	if head := off % WordSize; head != 0 {
		i = min(WordSize-head, n)
		copy(buf[off:], data[:i])
	}
	for ; i+WordSize <= n; i += WordSize {
		atomic.StoreUint64(wordPtr(buf, off+i), memWord(binary.LittleEndian.Uint64(data[i:])))
	}
	if i < n {
		copy(buf[off+i:], data[i:])
	}
}
