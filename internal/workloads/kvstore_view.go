package workloads

import "errors"

// Lock-free read variants of Get/Scan/ScanRange for the server's seqlock
// read path. They walk the same checksummed structure as the locked
// reads, but through a ReadView — no pool mutex, no journal slot, no
// transaction — while a committer may be mutating the heap concurrently.
//
// The caller (internal/server) brackets each walk with a commit-sequence
// check: snapshot an even sequence, walk, re-check. Inside the bracket
// every anomaly is indistinguishable from "a commit is in flight", so
// these functions never return ErrDataCorrupt; they return
// ErrReadConflict and let the caller retry or fall back to the locked
// path, whose transaction-protected walk adjudicates real media damage.
// Three anomaly classes map to conflict:
//
//   - a checksum mismatch (group or entry): the committer may have
//     stored some words of an update but not yet its CRC;
//   - an out-of-range or misaligned pointer: a chain link read mid-store
//     of a different field, or a stale link into a freed block;
//   - a chain longer than maxChainSteps: a stale next pointer can lead
//     into a cycle through reused blocks, so walks are step-bounded
//     rather than trusted to terminate.
//
// Values that pass both the CRC and the sequence re-check are committed
// state: the sequence bracket proves no commit overlapped the walk, and
// the checksum proves the media bytes are exactly what some committed
// transaction wrote. The same holds for the geometry each walk loads
// first: committers publish a grown one inside their critical section, so
// a walk that used the old one across a split fails its bracket.

// ErrReadConflict reports that a lock-free walk observed state that may
// be a concurrent mutation (or media damage — the locked fallback path
// distinguishes). Retryable by design.
var ErrReadConflict = errors.New("workloads: optimistic read conflict")

// maxChainSteps bounds a lock-free chain walk. Committed chains are
// bounded by pool capacity / entry size; any walk longer than this is a
// cycle through stale pointers, i.e. a conflict.
const maxChainSteps = 1 << 22

// ReadView is the word-granular lock-free window the view reads run
// against (satisfied by pool.ReadView). Load returns ok=false for
// out-of-bounds or misaligned offsets.
type ReadView interface {
	Load(off uint64) (val uint64, ok bool)
}

// loadSlotView is loadSlot against a view: verifies the slot's group
// word, returning the chain head or a conflict.
func loadSlotView(v ReadView, g *geometry, b uint64) (uint64, error) {
	first, word := g.group(b)
	var slots [slotGroup]uint64
	for i := range g.gsz {
		w, ok := v.Load(first + 8*i)
		if !ok {
			return 0, ErrReadConflict
		}
		slots[i] = w
	}
	w, ok := v.Load(word)
	if !ok || w != groupWord(slots[:g.gsz], w>>32) {
		return 0, ErrReadConflict
	}
	return slots[b&(g.gsz-1)], nil
}

// loadEntryView is loadEntry against a view: reads and CRC-verifies one
// chain entry, mapping any anomaly to a conflict.
func loadEntryView(v ReadView, e uint64) (key, next, val uint64, err error) {
	k, ok1 := v.Load(e + kvKey)
	n, ok2 := v.Load(e + kvNext)
	vv, ok3 := v.Load(e + kvVal)
	c, ok4 := v.Load(e + kvCRC)
	if !ok1 || !ok2 || !ok3 || !ok4 || c != entryCRC(k, n, vv) {
		return 0, 0, 0, ErrReadConflict
	}
	return k, n, vv, nil
}

// GetView is Get through a lock-free view. On ErrReadConflict the caller
// must re-check its sequence bracket and retry or fall back; a nil error
// plus a clean bracket means val/found are committed state.
func (kv *KVStore) GetView(v ReadView, key uint64) (val uint64, found bool, err error) {
	g := kv.geo.Load()
	e, err := loadSlotView(v, g, g.phys(key))
	if err != nil {
		return 0, false, err
	}
	for steps := 0; e != 0; steps++ {
		if steps >= maxChainSteps {
			return 0, false, ErrReadConflict
		}
		k, next, vv, err := loadEntryView(v, e)
		if err != nil {
			return 0, false, err
		}
		if k == key {
			return vv, true, nil
		}
		e = next
	}
	return 0, false, nil
}

// ScanView is Scan through a lock-free view (base-coordinate order). fn
// must be side-effect-free until the caller's sequence bracket validates:
// on conflict the caller discards and re-runs, so fn may observe pairs
// from an abandoned attempt.
func (kv *KVStore) ScanView(v ReadView, fn func(key, val uint64) bool) error {
	return kv.ScanRangeView(v, 0, kv.Buckets(), fn)
}

// ScanRangeView is ScanRange through a lock-free view: visits pairs
// whose base coordinates lie in [lo, hi) until fn returns false.
func (kv *KVStore) ScanRangeView(v ReadView, lo, hi uint64, fn func(key, val uint64) bool) error {
	g := kv.geo.Load()
	for c := lo; c < min(hi, g.n0); c++ {
		for b := c; b < g.buckets(); b += g.n0 {
			e, err := loadSlotView(v, g, b)
			if err != nil {
				return err
			}
			for steps := 0; e != 0; steps++ {
				if steps >= maxChainSteps {
					return ErrReadConflict
				}
				k, next, vv, err := loadEntryView(v, e)
				if err != nil {
					return err
				}
				if !fn(k, vv) {
					return nil
				}
				e = next
			}
		}
	}
	return nil
}
