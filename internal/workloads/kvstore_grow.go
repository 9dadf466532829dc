package workloads

import (
	"encoding/binary"
	"fmt"
	"slices"

	"corundum/internal/baselines/engine"
)

// Online growth: the directory is a linear-hashing table (Litwin 1980).
// Physical buckets [0, n0<<level) form a full level; the split pointer
// walks it one slot group at a time, and splitting group [p, p+8) moves
// each of its keys whose hash has bit n0<<level set to bucket p+n0<<level.
// Every physical bucket is congruent mod n0 to the base coordinate of the
// keys it holds, so Bucket, Buckets and ScanRange answer in base
// coordinates whatever the physical size, and a split never moves a key
// across a migration cursor or a backup chunk.
//
// The physical directory is a chain of n0-bucket segments: segment 0 is
// the base directory itself (its slot array, then its group words), later
// ones are heap blocks of the same size — so no larger than a block an
// arena already served — holding n0/8 groups of [group word][8 slots],
// listed in the segment table. The geometry record, linked from the
// directory's meta area, holds the level, the split pointer and the
// table:
//
//	record: [crc][level][split][segments][table][tableCap][tableCRC][reserved]
//	table:  [segment 1][segment 2]... (tableCap words; the first `segments` used)
//
// crc covers the six words after it and tableCRC the used table entries.
// The checksum leads, like a grown group's word: an undo payload that
// ended in a CRC32 of the words before it would have a journal checksum
// blind to which words those were (DESIGN §6.10). Key counts live in the
// group words (kvstore.go), which every insert and head delete already
// rewrites, so counting costs no fence.
//
// Splits ride the mutating transaction that calls for them: a batch that
// leaves more live keys than physical buckets splits up to two groups per
// eight keys it inserted, which keeps the load factor at most one and
// catches up on any backlog (a v1 image upgraded at a load factor of 64).
// The crash contract is therefore the batch's own: after a cut a split is
// wholly present, with the batch that carried it, or wholly absent.

// recordLen is the geometry record's block size.
const recordLen = 64

// initialTableCap is the segment table's first capacity; it doubles when
// full. It is small so short crash-exploration scripts move the table.
const initialTableCap = 2

// chainEntry is one entry a split walks: where it is, what it holds, and
// the next pointer the split gives it.
type chainEntry struct{ off, key, next, val, newNext uint64 }

// grow settles the batch's key count and splits while live keys exceed
// physical buckets, within the budget the batch's inserts earned.
func (m *batch) grow(tx engine.Tx) error {
	g := &m.g
	if !g.v2() {
		return nil
	}
	g.keys = g.keys + m.inserted - m.deleted
	if g.n0 < slotGroup {
		return nil
	}
	grew := false
	for budget := (2*m.inserted + slotGroup - 1) / slotGroup; budget > 0 && g.keys > g.buckets(); budget-- {
		ok, err := m.splitGroup(tx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		grew = true
	}
	if !grew {
		return nil
	}
	return writeRecord(tx, g)
}

// splitGroup splits the slot group at the split pointer. Each chain is
// partitioned by the next hash bit, order preserved, and only entries
// whose next pointer changes are rewritten: a chain that moves whole
// rewrites no entry. It reports false, having written nothing, when
// the group fails verification (a verified read reports the damage) or
// the pool has no room for a new segment; growth then waits for a later
// batch, and this one commits regardless.
func (m *batch) splitGroup(tx engine.Tx) (bool, error) {
	g := &m.g
	half := g.n0 << g.level
	lo, hi := g.split, g.split+half
	slots, count, err := loadGroup(tx, g, lo)
	if err != nil {
		return false, nil
	}
	var keep, move [slotGroup]uint64
	var moved uint64
	m.scratch = m.scratch[:0]
	for i := range slotGroup {
		lastKeep, lastMove := -1, -1
		for e := slots[i]; e != 0; {
			k, next, v, err := loadEntry(tx, e)
			if err != nil || uint64(len(m.scratch)) == count {
				return false, nil // damaged, or longer than the verified count
			}
			idx := len(m.scratch)
			m.scratch = append(m.scratch, chainEntry{off: e, key: k, next: next, val: v})
			heads, last := &keep[i], &lastKeep
			if k*fib&half != 0 {
				heads, last = &move[i], &lastMove
				moved++
			}
			if *last < 0 {
				*heads = e
			} else {
				m.scratch[*last].newNext = e
			}
			*last = idx
			e = next
		}
	}
	if uint64(len(m.scratch)) != count {
		return false, nil
	}
	if hi>>g.shift == uint64(len(g.segs)) {
		if ok, err := m.addSegment(tx); !ok || err != nil {
			return ok, err
		}
	}

	// The new group is written whole: its segment's bytes are whatever the
	// allocator left there.
	if err := m.storeGroup(tx, hi, &move, moved, true); err != nil {
		return false, err
	}
	if moved > 0 {
		if err := m.rehome(tx, slots, keep, lo, count-moved); err != nil {
			return false, err
		}
	}
	g.split += slotGroup
	if g.split == half {
		g.level, g.split = g.level+1, 0
	}
	return true, nil
}

// rehome relinks the split's walked entries and points the old group at
// the keys it keeps. A planted split bug defers part of it to a follow-up
// transaction instead.
func (m *batch) rehome(tx engine.Tx, slots, keep [slotGroup]uint64, lo, kept uint64) error {
	r := rehoming{m: m, ents: m.scratch, slots: slots, keep: keep, lo: lo, kept: kept}
	switch splitBug {
	case splitPublishBeforeRelink:
		later := r
		later.ents = slices.Clone(r.ents)
		m.after = append(m.after, func(tx engine.Tx) error { return later.write(tx, true) })
		return nil
	case splitMovedCRCLater:
		later := r
		later.ents = slices.Clone(r.ents)
		m.after = append(m.after, later.sealCRCs)
		return r.write(tx, false)
	}
	return r.write(tx, true)
}

// rehoming is the old group's half of one split: the entries to relink,
// and the group's slots before and after.
type rehoming struct {
	m           *batch
	ents        []chainEntry
	slots, keep [slotGroup]uint64
	lo, kept    uint64
}

func (r *rehoming) write(tx engine.Tx, withCRC bool) error {
	for _, c := range r.ents {
		if c.newNext == c.next {
			continue
		}
		var err error
		if withCRC {
			err = relink(tx, c.off, c.key, c.newNext, c.val)
		} else { // a planted bug: the link without its checksum
			err = tx.Store(c.off+kvNext, c.newNext)
		}
		if err != nil {
			return err
		}
	}
	return r.m.storeGroup(tx, r.lo, &r.keep, r.kept, r.keep != r.slots)
}

func (r *rehoming) sealCRCs(tx engine.Tx) error {
	for _, c := range r.ents {
		if c.newNext != c.next {
			if err := tx.Store(c.off+kvCRC, entryCRC(c.key, c.newNext, c.val)); err != nil {
				return err
			}
		}
	}
	return nil
}

// splitBug plants a deliberately broken split for the crash explorer's
// planted-bug tests (export_test.go). Each variant defers part of a split
// to a second transaction, so the store is right after every completed
// operation but wrong after a cut between the two.
var splitBug int

const (
	splitCorrect = iota
	// splitPublishBeforeRelink commits the new bucket's slot and the
	// advanced split pointer, and relinks the moved chains after.
	splitPublishBeforeRelink
	// splitMovedCRCLater relinks entries but rewrites their checksums
	// after.
	splitMovedCRCLater
)

// addSegment allocates the next n0-bucket segment and appends it to the
// segment table, moving the table to a block twice the size when it is
// full. It reports false, leaving the geometry as it was, when the pool
// has no room for either.
func (m *batch) addSegment(tx engine.Tx) (bool, error) {
	g := &m.g
	seg, err := tx.Alloc(segBytes(g.n0))
	if err != nil {
		return false, nil
	}
	n := uint64(len(g.segs) - 1)
	if n == g.tableCap {
		newCap := max(2*g.tableCap, initialTableCap)
		t, err := tx.Alloc(newCap * 8)
		if err != nil {
			return false, tx.Free(seg, segBytes(g.n0))
		}
		if n > 0 {
			if err := tx.StoreBytes(t, wordBytes(g.segs[1:])); err != nil {
				return false, err
			}
			if err := tx.Free(g.table, g.tableCap*8); err != nil {
				return false, err
			}
		}
		g.table, g.tableCap = t, newCap
	}
	if err := tx.Store(g.table+n*8, seg); err != nil {
		return false, err
	}
	g.segs = append(g.segs, seg)
	g.tableCRC = wordsCRC(g.segs[1:]...)
	return true, nil
}

func wordBytes(words []uint64) []byte {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return buf
}

// writeRecord stores g's level, split pointer and segment table link as
// the geometry record, in one store.
func writeRecord(tx engine.Tx, g *geometry) error {
	w := [7]uint64{0, g.level, g.split, uint64(len(g.segs) - 1), g.table, g.tableCap, g.tableCRC}
	w[0] = wordsCRC(w[1:]...)
	return tx.StoreBytes(g.rec, wordBytes(w[:]))
}

// loadRecord verifies the geometry record at rec and the segment table it
// links, filling in g's physical shape. size bounds every offset read.
func loadRecord(tx engine.Tx, g *geometry, rec, size uint64) error {
	bad := fmt.Errorf("%w: geometry record", ErrDataCorrupt)
	if rec > size-recordLen {
		return bad
	}
	var w [7]uint64
	for i := range w {
		w[i] = tx.Load(rec + 8*uint64(i))
	}
	if w[0] != wordsCRC(w[1:]...) {
		return bad
	}
	g.rec, g.level, g.split, g.table, g.tableCap, g.tableCRC = rec, w[1], w[2], w[4], w[5], w[6]
	n := w[3]
	if g.shift+g.level > 40 || g.split%g.gsz != 0 || g.split >= g.n0<<g.level ||
		n != (g.buckets()-1)>>g.shift || n > g.tableCap || g.tableCap > size/8 || g.table > size-g.tableCap*8 {
		return bad
	}
	segs := make([]uint64, 1, n+1)
	segs[0] = g.segs[0]
	for i := range n {
		seg := tx.Load(g.table + 8*i)
		if seg > size-segBytes(g.n0) {
			return fmt.Errorf("%w: segment table", ErrDataCorrupt)
		}
		segs = append(segs, seg)
	}
	if wordsCRC(segs[1:]...) != g.tableCRC {
		return fmt.Errorf("%w: segment table", ErrDataCorrupt)
	}
	g.segs = segs
	return nil
}

// upgrade turns a v1 image into v2 in one transaction: one walk counts
// every group's keys into its group word, then the geometry record is
// linked and the directory header re-sealed over it. Any failure leaves
// the v1 image as it was.
func (kv *KVStore) upgrade(base *geometry) (*geometry, error) {
	g := *base
	err := kv.pool.Tx(func(tx engine.Tx) error {
		rec, err := tx.Alloc(recordLen)
		if err != nil {
			return err
		}
		g.rec, g.keys = rec, 0
		for lo := uint64(0); lo < g.n0; lo += g.gsz {
			slots, _, err := loadGroup(tx, base, lo)
			if err != nil {
				return err
			}
			count := uint64(0)
			for _, e := range slots[:g.gsz] {
				for ; e != 0; count++ {
					if count == maxChainSteps {
						return fmt.Errorf("%w: chain cycle in bucket group %d", ErrDataCorrupt, lo/slotGroup)
					}
					if _, e, _, err = loadEntry(tx, e); err != nil {
						return err
					}
				}
			}
			if count > 0 {
				_, w := g.group(lo)
				if err := tx.Store(w, groupWord(slots[:g.gsz], count)); err != nil {
					return err
				}
			}
			g.keys += count
		}
		if err := writeRecord(tx, &g); err != nil {
			return err
		}
		if err := tx.Store(kv.meta+kvMetaGeo, rec); err != nil {
			return err
		}
		return tx.Store(kv.dir+8, wordsCRC(g.n0, rec))
	})
	return &g, err
}
