package pool

import (
	"fmt"

	"corundum/internal/pmem"
)

// ReadView is a lock-free window onto the pool's device for seqlock-style
// optimistic readers. Unlike a Transaction it takes no journal slot, no
// pool mutex, and no lock at all: Load is a single bounds-checked atomic
// word load. The caller owns correctness — it must exclude committers
// (the server's shard read lock) or bracket its reads with a
// commit-sequence check (the shard seqlock) and treat any CRC mismatch or
// implausible pointer inside a bracket as a possible in-flight mutation.
// Degraded (read-only) pools still serve views: reads of
// intact data are exactly what degraded mode preserves, and damage is
// surfaced by the same checksums either way.
type ReadView struct {
	mem  pmem.Reader
	size uint64
}

// ReadView returns the pool's lock-free read view. It fails only on a
// closed pool; the view stays valid until Close (the device buffer is
// never reallocated while the pool is open).
func (p *Pool) ReadView() (*ReadView, error) {
	p.mu.RLock()
	open := p.open
	p.mu.RUnlock()
	if !open {
		return nil, fmt.Errorf("%w: no read view", ErrClosed)
	}
	return &ReadView{mem: p.dev.Reader(), size: uint64(p.dev.Size())}, nil
}

// Size is the pool's device size in bytes (the view's addressable range).
func (v *ReadView) Size() uint64 { return v.size }

// Load returns the little-endian word at off, or ok=false when off is
// out of bounds or not word-aligned — a malformed pointer, which a reader
// must treat as damage (or, inside a seqlock bracket, as a possible
// conflict), never as data. Aligned in-bounds loads are word-atomic, so a racing
// committer store can make the value stale or inconsistent but never
// torn.
func (v *ReadView) Load(off uint64) (val uint64, ok bool) {
	if off%pmem.WordSize != 0 || off > v.size-pmem.WordSize {
		return 0, false
	}
	return v.mem.Load8(off), true
}
