package workloads

import (
	"fmt"

	"corundum/internal/baselines/engine"
	"corundum/internal/pool"
)

// The store's one read walk. Every read of the keyspace — Get, Scan,
// ScanRange, the mutators' chain walks, and the server's lock-free reads —
// goes through loadGroup and loadEntry below, over a word reader that is
// either the pool's lock-free view or a transaction of any engine.
//
// The walk verifies every slot group and chain entry it touches and
// reports each anomaly as ErrDataCorrupt naming the structure:
//
//   - a checksum mismatch (group or entry);
//   - an out-of-range or misaligned pointer;
//   - a chain longer than maxChainSteps: a stale next pointer can lead
//     into a cycle through reused blocks, so walks are step-bounded
//     rather than trusted to terminate.
//
// What such an error means depends on what the caller holds. Under a
// transaction or a lock that excludes committers it is media damage. A
// caller that walks the view while a committer may run (the server's
// seqlock bracket, DESIGN §6.9) cannot tell damage from a commit in
// flight: the committer may have stored some words of an update but not
// yet its CRC, or freed a block a stale link still names. It re-checks
// its bracket, retrying if a commit overlapped the walk and walking again
// under the lock if none did. Values that pass both the CRC and the
// bracket are committed state. The same holds for the geometry each walk
// loads first: committers publish a grown one inside their critical
// section, so a walk that used the old one across a split fails its
// bracket.
//
// The errors are preallocated: a walk inside a bracket meets them
// routinely, and must not allocate when it does.
var (
	errGroupCRC = fmt.Errorf("%w: bucket group checksum mismatch", ErrDataCorrupt)
	errEntryCRC = fmt.Errorf("%w: chain entry checksum mismatch", ErrDataCorrupt)
	errPointer  = fmt.Errorf("%w: out-of-range or misaligned pointer", ErrDataCorrupt)
	errChain    = fmt.Errorf("%w: chain longer than %d entries", ErrDataCorrupt, maxChainSteps)
)

// maxChainSteps bounds a chain walk. Committed chains are bounded by pool
// capacity / entry size; any walk longer than this is a cycle.
const maxChainSteps = 1 << 22

// wordReader is what a walk reads through: the pool's lock-free view or,
// when view is nil, a transaction over a pool of size bytes. Either way a
// load outside the pool or off a word boundary reports !ok, so a damaged
// pointer is reported as damage, never a panic. It is a struct with a
// branch, not an interface, so a view load costs no dispatch and a
// transactional load only the one tx.Load already pays.
type wordReader struct {
	view *pool.ReadView
	tx   engine.Tx
	size uint64
}

// read fills out with the words from off on, reporting false when any of
// them lies outside the pool or off a word boundary.
func (r *wordReader) read(off uint64, out []uint64) bool {
	if r.view == nil {
		if !r.inPool(off, len(out)) {
			return false
		}
		for i := range out {
			out[i] = r.tx.Load(off + 8*uint64(i))
		}
		return true
	}
	for i := range out {
		w, ok := r.view.Load(off + 8*uint64(i))
		if !ok {
			return false
		}
		out[i] = w
	}
	return true
}

// inPool reports whether n words from off lie word-aligned in the pool.
func (r *wordReader) inPool(off uint64, n int) bool {
	return off%8 == 0 && off <= r.size-8*uint64(n)
}

// txReader reads through tx.
func (kv *KVStore) txReader(tx engine.Tx) wordReader { return wordReader{tx: tx, size: kv.size} }

// loadGroup reads and verifies the slot group holding physical bucket b:
// its slots (the first gsz of the array) and their key count.
func loadGroup(r *wordReader, g *geometry, b uint64) (slots [slotGroup]uint64, count uint64, err error) {
	first, word := g.group(b)
	var w [1]uint64
	if !r.read(first, slots[:g.gsz]) || !r.read(word, w[:]) {
		return slots, 0, errPointer
	}
	if w[0] != groupWord(slots[:g.gsz], w[0]>>32) {
		return slots, 0, errGroupCRC
	}
	return slots, w[0] >> 32, nil
}

// loadSlot reads physical bucket slot b after verifying its group.
func loadSlot(r *wordReader, g *geometry, b uint64) (uint64, error) {
	slots, _, err := loadGroup(r, g, b)
	return slots[b&(g.gsz-1)], err
}

// loadEntry reads and verifies one chain entry. A transaction's four
// loads are written out, not looped through read: on long chains the loop
// around the interface call made overwrites measurably slower.
func loadEntry(r *wordReader, e uint64) (key, next, val uint64, err error) {
	var w [kvEntry / 8]uint64
	if r.view != nil {
		if !r.read(e, w[:]) {
			return 0, 0, 0, errPointer
		}
	} else {
		if !r.inPool(e, len(w)) {
			return 0, 0, 0, errPointer
		}
		tx := r.tx
		w[0], w[1], w[2], w[3] = tx.Load(e), tx.Load(e+8), tx.Load(e+16), tx.Load(e+24)
	}
	key, next, val = w[kvKey/8], w[kvNext/8], w[kvVal/8]
	if w[kvCRC/8] != entryCRC(key, next, val) {
		return 0, 0, 0, errEntryCRC
	}
	return key, next, val, nil
}

// lookup walks key's chain.
func lookup(r *wordReader, g *geometry, key uint64) (val uint64, found bool, err error) {
	e, err := loadSlot(r, g, g.phys(key))
	if err != nil {
		return 0, false, err
	}
	for steps := 0; e != 0; steps++ {
		if steps == maxChainSteps {
			return 0, false, errChain
		}
		k, next, v, err := loadEntry(r, e)
		if err != nil {
			return 0, false, err
		}
		if k == key {
			return v, true, nil
		}
		e = next
	}
	return 0, false, nil
}

// scanRange visits every pair whose base coordinate lies in [lo, hi)
// until fn returns false. Base coordinate c is every physical bucket
// congruent to c mod n0, visited in ascending order.
func scanRange(r *wordReader, g *geometry, lo, hi uint64, fn func(key, val uint64) bool) error {
	for c := lo; c < min(hi, g.n0); c++ {
		for b := c; b < g.buckets(); b += g.n0 {
			e, err := loadSlot(r, g, b)
			if err != nil {
				return err
			}
			for steps := 0; e != 0; steps++ {
				if steps == maxChainSteps {
					return errChain
				}
				k, next, v, err := loadEntry(r, e)
				if err != nil {
					return err
				}
				if !fn(k, v) {
					return nil
				}
				e = next
			}
		}
	}
	return nil
}

// Get looks up key (the paper's GET) in a read-only transaction.
func (kv *KVStore) Get(key uint64) (val uint64, found bool, err error) {
	g := kv.geo.Load()
	err = kv.pool.Tx(func(tx engine.Tx) (err error) {
		r := kv.txReader(tx)
		val, found, err = lookup(&r, g, key)
		return err
	})
	return val, found, err
}

// GetView is Get through the pool's lock-free view: no transaction, no
// journal slot, no lock. A caller that does not exclude committers must
// bracket it (see the top of this file).
func (kv *KVStore) GetView(v *pool.ReadView, key uint64) (val uint64, found bool, err error) {
	return lookup(&wordReader{view: v}, kv.geo.Load(), key)
}

// Scan visits every key/value pair (in base-coordinate order, not key
// order) until fn returns false, in a read-only transaction.
func (kv *KVStore) Scan(fn func(key, val uint64) bool) error {
	return kv.ScanRange(0, kv.Buckets(), fn)
}

// ScanRange visits every key/value pair whose base coordinate (Bucket)
// lies in [lo, hi) until fn returns false, in a read-only transaction.
// Migration moves keys in bucket-index windows, so "which keys does this
// batch cover" and "which keys has the cursor passed" are both
// bucket-range questions.
func (kv *KVStore) ScanRange(lo, hi uint64, fn func(key, val uint64) bool) error {
	g := kv.geo.Load()
	return kv.pool.Tx(func(tx engine.Tx) error {
		r := kv.txReader(tx)
		return scanRange(&r, g, lo, hi, fn)
	})
}

// ScanRangeView is ScanRange through the pool's lock-free view. A caller
// that does not exclude committers must bracket it, and fn must then be
// side-effect-free until the bracket validates: a conflicted walk is
// discarded and re-run.
func (kv *KVStore) ScanRangeView(v *pool.ReadView, lo, hi uint64, fn func(key, val uint64) bool) error {
	return scanRange(&wordReader{view: v}, kv.geo.Load(), lo, hi, fn)
}
