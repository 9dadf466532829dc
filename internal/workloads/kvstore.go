package workloads

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"
	"sync/atomic"

	"corundum/internal/baselines/engine"
)

// ErrDataCorrupt reports that a stored checksum failed verification: the
// media returned bytes that no committed transaction wrote. Verified
// readers surface it instead of silently returning a wrong value.
var ErrDataCorrupt = errors.New("workloads: data corruption detected")

// KVStore is the paper's "simple Key-Value store data structure using hash
// map": chained buckets under a linear-hashing directory that grows with
// its keys (kvstore_grow.go), hardened against at-rest media faults with
// checksums on every structure.
//
// Entry layout: [key][next][val][crc], 32 bytes (the allocator minimum
// anyway). crc is a CRC32 (widened to a word) over key/next/val. val and
// crc are adjacent so the hot overwrite path updates them with ONE
// contiguous 16-byte store — a single undo-log entry, preserving the
// paper's fence profile (entries are 32-byte aligned, so val and crc
// always share a cache line).
const (
	kvKey   = 0
	kvNext  = 8
	kvVal   = 16
	kvCRC   = 24
	kvEntry = 32
)

// Directory layout (segment 0, the block the root points at):
//
//	[n0][dirCRC][slots n0×8][groupWords ⌈n0/8⌉×8]
//	[cfg][cfgCRC][mani][maniCRC][replEpoch][replSeq][replCRC][geo]
//
// n0 is the base bucket count: keys are coordinated (Bucket, ScanRange,
// migration cursors) by h & (n0-1) forever, whatever the physical
// directory has grown to. geo links the geometry record (0 on a v1 image,
// which predates growth), and dirCRC covers n0 and geo: wordsCRC(n0) on a
// v1 image, wordsCRC(n0, geo) on v2, so a binary that predates growth
// refuses a v2 image at its directory header rather than misreading it.
//
// Group word i covers slots [8i, 8i+8): its high half is the number of
// keys chained from those slots, its low half the slots' CRC32 XOR
// count·countMix. A zero count leaves the plain CRC32, so every group of
// a v1 image is a valid group of count zero.
//
// The remaining meta words anchor the sharding and replication
// machinery: cfg packs the cluster config (epoch<<32 | shard count, 0
// when never written), mani points at the migration/restore manifest
// block (0 when no manifest is pending), and the repl pair is the durable
// replication cursor {epoch, seq} — on a replica, the last frame applied;
// on a primary, the last sequence this shard committed (see
// ApplyWithCursor). Each carries its own checksum so a media fault in any
// of them is a loud ErrDataCorrupt, never silent misrouting or re-apply.
const (
	slotGroup  = 8
	groupBytes = 8 + slotGroup*8 // a grown segment's group: its word, then its slots
	kvMetaLen  = 64              // [cfg][cfgCRC][mani][maniCRC][replEpoch][replSeq][replCRC][geo]

	kvMetaCfg  = 0  // offset of the config word within the meta area
	kvMetaMani = 16 // offset of the manifest-pointer word within the meta area
	kvMetaRepl = 32 // offset of the replication cursor pair within the meta area
	kvMetaGeo  = 56 // offset of the geometry-record link within the meta area

	// countMix folds a group's key count into its checksum. It is odd, so
	// count·countMix is a bijection mod 2^32 and any change to the count
	// changes the check.
	countMix = 0x9E3779B1

	fib = 0x9E3779B97F4A7C15 // Fibonacci hashing multiplier
)

// KVStore is a persistent hash map over one engine pool. Mutations must
// be serialized by the caller (the server's store lock); reads may run
// concurrently with each other, and the View reads with a mutation.
type KVStore struct {
	pool engine.Pool
	dir  uint64 // offset of the directory block
	meta uint64 // offset of the config/manifest/cursor meta words
	geo  atomic.Pointer[geometry]
}

// geometry is the store's physical shape as of one commit: how many
// buckets exist, which one a key lives in, and where its slot is.
// Committers publish a fresh one after every transaction that changes it
// (inside the store lock's odd window, so lock-free readers that loaded
// the old one fail their bracket); readers load it once per walk.
type geometry struct {
	n0, shift uint64   // base bucket count (a power of two) and its log2
	gsz       uint64   // buckets per slot group: min(slotGroup, n0)
	level     uint64   // completed doublings: buckets [0, n0<<level) form a full level
	split     uint64   // next bucket to split this level; those below it already have
	keys      uint64   // live keys; not maintained on a v1 image
	segs      []uint64 // slot-array offset of each n0-bucket segment; segs[0] is the base directory's

	rec      uint64 // geometry record; 0 on a v1 image served at base geometry
	table    uint64 // segment-table block (segments 1..), 0 before the first
	tableCap uint64 // entries the table block holds
	tableCRC uint64 // wordsCRC over segs[1:]
}

// v2 reports whether the image carries a geometry record, and with it
// key counts and growth.
func (g *geometry) v2() bool { return g.rec != 0 }

// buckets is the physical bucket count.
func (g *geometry) buckets() uint64 { return g.n0<<g.level + g.split }

// phys is the physical bucket key lives in: linear hashing over the low
// bits of its Fibonacci hash, one more bit for buckets already split this
// level. Its low log2(n0) bits are always the key's base coordinate.
func (g *geometry) phys(key uint64) uint64 {
	h := key * fib
	b := h & (g.n0<<g.level - 1)
	if b < g.split {
		b = h & (g.n0<<(g.level+1) - 1)
	}
	return b
}

// group locates the slot group holding physical bucket b: the offset of
// its first slot and of its group word. Segment 0 keeps the v1 layout, a
// slot array then a word array; a grown segment stores each group's word
// right before its slots, so one store writes both. (Not after them: an
// undo payload that ends in a CRC32 of the words before it has a journal
// checksum that cannot tell those words apart — see DESIGN §6.10.)
func (g *geometry) group(b uint64) (slots, word uint64) {
	if b < g.n0 {
		i := b &^ (g.gsz - 1)
		return g.segs[0] + i*8, g.segs[0] + g.n0*8 + i/slotGroup*8
	}
	word = g.segs[b>>g.shift] + (b&(g.n0-1))/slotGroup*groupBytes
	return word + 8, word
}

// crcTab holds the slicing-by-8 tables for CRC-32/IEEE: crcTab[0] is the
// standard byte table, crcTab[k][b] is the CRC of byte b followed by k
// zero bytes.
var crcTab = func() (t [8][256]uint32) {
	t[0] = *crc32.MakeTable(crc32.IEEE)
	for k := 1; k < 8; k++ {
		for b := range t[k] {
			prev := t[k-1][b]
			t[k][b] = t[0][prev&0xFF] ^ prev>>8
		}
	}
	return t
}()

// wordsCRC is crc32.ChecksumIEEE over the little-endian bytes of words,
// computed eight bytes per step straight from the uint64s. Every chain
// hop of every read pays for one of these, so it neither builds a byte
// buffer nor calls through hash/crc32's dispatch variable (which made
// the buffer escape to the heap).
func wordsCRC(words ...uint64) uint64 {
	crc := ^uint32(0)
	for _, w := range words {
		lo, hi := uint32(w)^crc, uint32(w>>32)
		crc = crcTab[7][lo&0xFF] ^ crcTab[6][lo>>8&0xFF] ^ crcTab[5][lo>>16&0xFF] ^ crcTab[4][lo>>24] ^
			crcTab[3][hi&0xFF] ^ crcTab[2][hi>>8&0xFF] ^ crcTab[1][hi>>16&0xFF] ^ crcTab[0][hi>>24]
	}
	return uint64(^crc)
}

func entryCRC(key, next, val uint64) uint64 { return wordsCRC(key, next, val) }

// groupWord packs a slot group's key count with its checksum.
func groupWord(slots []uint64, count uint64) uint64 {
	return count<<32 | (wordsCRC(slots...) ^ uint64(uint32(count*countMix)))
}

func groups(n uint64) uint64 { return (n + slotGroup - 1) / slotGroup }

// segBytes is the size of one segment's slot and group-word arrays.
func segBytes(n0 uint64) uint64 { return n0*8 + groups(n0)*8 }

// NewKVStore initializes a store whose base directory has nBuckets chains
// (rounded up to a power of two). The physical directory starts there and
// grows with the keys.
func NewKVStore(p engine.Pool, nBuckets int) (*KVStore, error) {
	n := uint64(1)
	for n < uint64(nBuckets) {
		n <<= 1
	}
	kv := &KVStore{pool: p}
	var g *geometry
	err := p.Tx(func(tx engine.Tx) error {
		dir, err := tx.Alloc(16 + segBytes(n) + kvMetaLen)
		if err != nil {
			return err
		}
		rec, err := tx.Alloc(recordLen)
		if err != nil {
			return err
		}
		kv.dir, kv.meta = dir, dir+16+segBytes(n)
		g = baseGeometry(dir, n)
		g.rec = rec
		if err := tx.Store(dir, n); err != nil {
			return err
		}
		if err := tx.Store(dir+8, wordsCRC(n, rec)); err != nil {
			return err
		}
		if err := tx.StoreBytes(dir+16, make([]byte, n*8)); err != nil {
			return err
		}
		var zero [slotGroup]uint64
		for b := uint64(0); b < n; b += g.gsz {
			_, w := g.group(b)
			if err := tx.Store(w, groupWord(zero[:g.gsz], 0)); err != nil {
				return err
			}
		}
		// Meta words start zeroed: no config written, no manifest pending.
		// The checksums still cover them so later flips are detected.
		for _, off := range []uint64{kvMetaCfg, kvMetaMani} {
			if err := tx.Store(kv.meta+off, 0); err != nil {
				return err
			}
			if err := tx.Store(kv.meta+off+8, wordsCRC(0)); err != nil {
				return err
			}
		}
		// Replication cursor {epoch, seq} starts at zero: never replicated.
		if err := kv.writeReplCursorTx(tx, 0, 0); err != nil {
			return err
		}
		if err := writeRecord(tx, g); err != nil {
			return err
		}
		if err := tx.Store(kv.meta+kvMetaGeo, rec); err != nil {
			return err
		}
		return tx.SetRoot(dir)
	})
	if err != nil {
		return nil, err
	}
	kv.geo.Store(g)
	return kv, nil
}

// baseGeometry is an unsplit directory of n0 buckets rooted at dir.
func baseGeometry(dir, n0 uint64) *geometry {
	return &geometry{
		n0: n0, shift: uint64(bits.TrailingZeros64(n0)), gsz: min(slotGroup, n0),
		segs: []uint64{dir + 16},
	}
}

// AttachKVStore reconnects to a store previously created in the pool,
// verifying the directory header's checksum, the geometry record and the
// config/manifest meta slots first: a store whose routing metadata cannot
// be trusted must not serve at all, because a wrong shard count silently
// misroutes every key. A v1 image (no geometry record) is upgraded to v2
// in one transaction; a pool that cannot take the write (read-only,
// degraded, out of space) serves it at base geometry, without growth.
func AttachKVStore(p engine.Pool) (*KVStore, error) {
	dir := p.Root()
	kv := &KVStore{pool: p, dir: dir}
	var g *geometry
	size := uint64(p.Device().Size())
	err := p.Tx(func(tx engine.Tx) error {
		n := tx.Load(dir)
		if n == 0 || n&(n-1) != 0 || n > size/16 || dir+16+segBytes(n)+kvMetaLen > size {
			return fmt.Errorf("%w: directory header", ErrDataCorrupt)
		}
		kv.meta = dir + 16 + segBytes(n)
		rec := tx.Load(kv.meta + kvMetaGeo)
		want := wordsCRC(n)
		if rec != 0 {
			want = wordsCRC(n, rec)
		}
		if tx.Load(dir+8) != want {
			return fmt.Errorf("%w: directory header", ErrDataCorrupt)
		}
		if err := kv.verifyMetaTx(tx); err != nil {
			return err
		}
		g = baseGeometry(dir, n)
		if rec == 0 {
			return nil
		}
		if err := loadRecord(tx, g, rec, size); err != nil {
			return err
		}
		for lo := uint64(0); lo < g.buckets(); lo += g.gsz {
			_, w := g.group(lo)
			g.keys += tx.Load(w) >> 32
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !g.v2() {
		if up, err := kv.upgrade(g); err == nil {
			g = up
		}
	}
	kv.geo.Store(g)
	return kv, nil
}

// verifyMetaTx checks the config, manifest-pointer and replication-cursor
// slots' checksums.
func (kv *KVStore) verifyMetaTx(tx engine.Tx) error {
	for _, m := range []struct {
		off  uint64
		name string
	}{{kvMetaCfg, "config"}, {kvMetaMani, "manifest pointer"}} {
		w := tx.Load(kv.meta + m.off)
		if tx.Load(kv.meta+m.off+8) != wordsCRC(w) {
			return fmt.Errorf("%w: %s meta slot", ErrDataCorrupt, m.name)
		}
	}
	return kv.verifyReplCursorTx(tx)
}

// loadGroup reads and verifies the slot group holding physical bucket b:
// its slots (the first gsz of the array) and their key count.
func loadGroup(tx engine.Tx, g *geometry, b uint64) (slots [slotGroup]uint64, count uint64, err error) {
	first, word := g.group(b)
	for i := range g.gsz {
		slots[i] = tx.Load(first + 8*i)
	}
	w := tx.Load(word)
	if w != groupWord(slots[:g.gsz], w>>32) {
		return slots, 0, fmt.Errorf("%w: bucket group %d", ErrDataCorrupt, b/slotGroup)
	}
	return slots, w >> 32, nil
}

// loadSlot reads physical bucket slot b after verifying its group.
func loadSlot(tx engine.Tx, g *geometry, b uint64) (uint64, error) {
	slots, _, err := loadGroup(tx, g, b)
	return slots[b&(g.gsz-1)], err
}

// loadEntry reads and verifies one chain entry.
func loadEntry(tx engine.Tx, e uint64) (key, next, val uint64, err error) {
	key, next, val = tx.Load(e+kvKey), tx.Load(e+kvNext), tx.Load(e+kvVal)
	if tx.Load(e+kvCRC) != entryCRC(key, next, val) {
		return 0, 0, 0, fmt.Errorf("%w: entry %#x", ErrDataCorrupt, e)
	}
	return key, next, val, nil
}

// batch is one mutating transaction's working state: the geometry it
// grows, and how many keys its ops inserted and deleted.
type batch struct {
	g                 geometry
	inserted, deleted uint64
	scratch           []chainEntry // one split's walk, reused across splits
	buf               [groupBytes]byte

	// after holds writes a planted split bug defers to a follow-up
	// transaction (export_test.go); always empty otherwise.
	after []func(engine.Tx) error
}

// batches recycles batch state — a split's scratch and the store buffer —
// across transactions, so a commit leaves no garbage behind for them.
var batches = sync.Pool{New: func() any { return new(batch) }}

// mutate runs body and the growth it calls for in one failure-atomic
// transaction, then publishes the resulting geometry. Every mutation of
// the keyspace goes through here.
func (kv *KVStore) mutate(body func(tx engine.Tx, m *batch) error) error {
	cur := kv.geo.Load()
	m := batches.Get().(*batch)
	defer batches.Put(m)
	err := kv.pool.Tx(func(tx engine.Tx) error {
		m.g, m.inserted, m.deleted, m.after = *cur, 0, 0, nil
		if err := body(tx, m); err != nil {
			return err
		}
		return m.grow(tx)
	})
	if err != nil {
		return err
	}
	if m.g.keys != cur.keys || m.g.buckets() != cur.buckets() {
		g := m.g
		kv.geo.Store(&g)
	}
	if len(m.after) == 0 {
		return nil
	}
	return kv.pool.Tx(func(tx engine.Tx) error {
		for _, f := range m.after {
			if err := f(tx); err != nil {
				return err
			}
		}
		return nil
	})
}

// store writes words to off in one contiguous store: one undo entry. It
// encodes them into the batch's buffer, so the write path allocates
// nothing per store.
func (m *batch) store(tx engine.Tx, off uint64, words ...uint64) error {
	for i, w := range words {
		binary.LittleEndian.PutUint64(m.buf[8*i:], w)
	}
	return tx.StoreBytes(off, m.buf[:8*len(words)])
}

// storeGroup writes the group holding physical bucket b: its word over
// slots with count (zero on a v1 image), and its slots when they changed.
// A grown segment's group always goes in one store, word and slots
// together. Every write keeps one granularity per offset — a group's
// slots whole, a grown group whole — which the journal's first-touch
// deduplication relies on, and costs one undo entry per group per
// transaction however many of its buckets the transaction touches.
func (m *batch) storeGroup(tx engine.Tx, b uint64, slots *[slotGroup]uint64, count uint64, slotsChanged bool) error {
	g := &m.g
	if !g.v2() {
		count = 0
	}
	first, word := g.group(b)
	w := groupWord(slots[:g.gsz], count)
	if word+8 == first {
		var ws [1 + slotGroup]uint64
		ws[0] = w
		copy(ws[1:], slots[:])
		return m.store(tx, word, ws[:]...)
	}
	if slotsChanged {
		if err := m.store(tx, first, slots[:g.gsz]...); err != nil {
			return err
		}
	}
	return tx.Store(word, w)
}

// storeSlot points physical bucket b at head and moves its group's key
// count by delta. The batch has verified the group earlier in the
// transaction.
func (m *batch) storeSlot(tx engine.Tx, b, head uint64, delta int64) error {
	g := &m.g
	var slots [slotGroup]uint64
	first, w := g.group(b)
	for i := range g.gsz {
		slots[i] = tx.Load(first + 8*i)
	}
	slots[b&(g.gsz-1)] = head
	return m.storeGroup(tx, b, &slots, uint64(int64(tx.Load(w)>>32)+delta), true)
}

// relink points entry e at next and rewrites its checksum, as two word
// stores: one [next][val][crc] store would end its undo payload in the
// CRC of the words before it (see group).
func relink(tx engine.Tx, e, key, next, val uint64) error {
	if err := tx.Store(e+kvNext, next); err != nil {
		return err
	}
	return tx.Store(e+kvCRC, entryCRC(key, next, val))
}

// put inserts or updates key. An overwrite rewrites the entry's value and
// checksum, which are adjacent, in one store: the hot path's single undo
// entry.
func (m *batch) put(tx engine.Tx, key, val uint64) error {
	g := &m.g
	b := g.phys(key)
	head, err := loadSlot(tx, g, b)
	if err != nil {
		return err
	}
	for e := head; e != 0; {
		k, next, _, err := loadEntry(tx, e)
		if err != nil {
			return err
		}
		if k == key {
			return m.store(tx, e+kvVal, val, entryCRC(key, next, val))
		}
		e = next
	}
	e, err := tx.Alloc(kvEntry)
	if err != nil {
		return err
	}
	if err := m.store(tx, e, key, head, val, entryCRC(key, head, val)); err != nil {
		return err
	}
	m.inserted++
	return m.storeSlot(tx, b, e, 1)
}

// del removes key and reclaims its entry, reporting whether it existed.
func (m *batch) del(tx engine.Tx, key uint64) (bool, error) {
	g := &m.g
	b := g.phys(key)
	head, err := loadSlot(tx, g, b)
	if err != nil {
		return false, err
	}
	var prevE, prevKey, prevVal uint64
	for e := head; e != 0; {
		k, next, v, err := loadEntry(tx, e)
		if err != nil {
			return false, err
		}
		if k == key {
			if prevE == 0 {
				err = m.storeSlot(tx, b, next, -1)
			} else if err = relink(tx, prevE, prevKey, next, prevVal); err == nil && g.v2() {
				slots, count, _ := loadGroup(tx, g, b)
				err = m.storeGroup(tx, b, &slots, count-1, false)
			}
			if err != nil {
				return false, err
			}
			m.deleted++
			return true, tx.Free(e, kvEntry)
		}
		prevE, prevKey, prevVal = e, k, v
		e = next
	}
	return false, nil
}

// apply runs ops in order, recording each one's result in res.
func (m *batch) apply(tx engine.Tx, ops []Op, res []bool) error {
	for i, op := range ops {
		if op.Del {
			removed, err := m.del(tx, op.Key)
			if err != nil {
				return err
			}
			res[i] = removed
		} else {
			if err := m.put(tx, op.Key, op.Val); err != nil {
				return err
			}
			res[i] = true
		}
	}
	return nil
}

// Put inserts or updates key (the paper's PUT).
func (kv *KVStore) Put(key, val uint64) error {
	return kv.mutate(func(tx engine.Tx, m *batch) error { return m.put(tx, key, val) })
}

// Get looks up key (the paper's GET). Every entry touched on the way is
// checksum-verified; a mismatch returns ErrDataCorrupt rather than a
// possibly-wrong value.
func (kv *KVStore) Get(key uint64) (val uint64, found bool, err error) {
	g := kv.geo.Load()
	err = kv.pool.Tx(func(tx engine.Tx) error {
		e, err := loadSlot(tx, g, g.phys(key))
		if err != nil {
			return err
		}
		for e != 0 {
			k, next, v, err := loadEntry(tx, e)
			if err != nil {
				return err
			}
			if k == key {
				val, found = v, true
				return nil
			}
			e = next
		}
		return nil
	})
	return val, found, err
}

// Delete removes key and reclaims its entry.
func (kv *KVStore) Delete(key uint64) (removed bool, err error) {
	err = kv.mutate(func(tx engine.Tx, m *batch) error {
		removed, err = m.del(tx, key)
		return err
	})
	return removed, err
}

// Op is one mutation in a batched transaction: a PUT of Key=Val, or (when
// Del is set) a delete of Key.
type Op struct {
	Del      bool
	Key, Val uint64
}

// Apply runs every op, in order, inside ONE failure-atomic transaction:
// after a crash either all ops are visible or none are. This is the
// group-commit entry point used by corundum-server's batcher — one
// undo-log commit (and its flush+fence) is amortized over the whole
// batch. The returned slice has one element per op: for deletes, whether
// the key existed; for puts, always true.
func (kv *KVStore) Apply(ops []Op) ([]bool, error) {
	res := make([]bool, len(ops))
	if len(ops) == 0 {
		return res, nil
	}
	if err := kv.mutate(func(tx engine.Tx, m *batch) error { return m.apply(tx, ops, res) }); err != nil {
		return nil, err
	}
	return res, nil
}

// Scan visits every key/value pair (in base-coordinate order, not key
// order) until fn returns false. It runs as a read-only transaction with
// the same verified-read discipline as Get.
func (kv *KVStore) Scan(fn func(key, val uint64) bool) error {
	return kv.ScanRange(0, kv.Buckets(), fn)
}

// ScanRange visits every key/value pair whose base coordinate (Bucket)
// lies in [lo, hi) until fn returns false. Migration moves keys in
// bucket-index windows, so "which keys does this batch cover" and "which
// keys has the cursor passed" are both bucket-range questions; ScanRange
// is the verified walk both use. Base coordinate c is every physical
// bucket congruent to c mod n0, visited in ascending order.
func (kv *KVStore) ScanRange(lo, hi uint64, fn func(key, val uint64) bool) error {
	g := kv.geo.Load()
	hi = min(hi, g.n0)
	return kv.pool.Tx(func(tx engine.Tx) error {
		for c := lo; c < hi; c++ {
			for b := c; b < g.buckets(); b += g.n0 {
				e, err := loadSlot(tx, g, b)
				if err != nil {
					return err
				}
				for e != 0 {
					k, next, v, err := loadEntry(tx, e)
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
	})
}

// Buckets reports the base directory size: the bound of the coordinate
// system Bucket answers in, which migration cursors count. The physical
// directory (Shape) grows past it; coordinates never change.
func (kv *KVStore) Buckets() uint64 { return kv.geo.Load().n0 }

// Bucket reports key's base coordinate: h & (n0-1) of its hash, congruent
// mod n0 to whichever physical bucket holds it.
func (kv *KVStore) Bucket(key uint64) uint64 {
	return key * fib & (kv.geo.Load().n0 - 1)
}

// Shape reports the live key count and the physical bucket count, read
// from the published geometry (O(1), safe against a concurrent commit).
// keys is 0 on a v1 image served at base geometry.
func (kv *KVStore) Shape() (keys, buckets uint64) {
	g := kv.geo.Load()
	return g.keys, g.buckets()
}

// Len counts entries (test helper).
func (kv *KVStore) Len() (int, error) {
	n := 0
	err := kv.Scan(func(_, _ uint64) bool { n++; return true })
	return n, err
}

// VerifyIntegrity walks the whole store — directory header, geometry
// record, every slot group, every chain entry — verifying each checksum,
// that every key sits in the physical bucket its hash names, and that
// every group's key count matches its chains. It returns nil when
// everything checks out and an ErrDataCorrupt-wrapped diagnosis naming
// the first damaged structure otherwise. Servers run it at startup and on
// demand (SCRUB).
func (kv *KVStore) VerifyIntegrity() error {
	g := kv.geo.Load()
	return kv.pool.Tx(func(tx engine.Tx) error {
		n, rec := tx.Load(kv.dir), tx.Load(kv.meta+kvMetaGeo)
		want := wordsCRC(n)
		if rec != 0 {
			want = wordsCRC(n, rec)
		}
		if tx.Load(kv.dir+8) != want {
			return fmt.Errorf("%w: directory header", ErrDataCorrupt)
		}
		if n != g.n0 || rec != g.rec {
			return fmt.Errorf("%w: directory claims %d buckets and record %#x, attached with %d and %#x",
				ErrDataCorrupt, n, rec, g.n0, g.rec)
		}
		if g.v2() {
			disk := baseGeometry(kv.dir, n)
			if err := loadRecord(tx, disk, rec, uint64(kv.pool.Device().Size())); err != nil {
				return err
			}
			if disk.level != g.level || disk.split != g.split || len(disk.segs) != len(g.segs) {
				return fmt.Errorf("%w: geometry record disagrees with the attached geometry", ErrDataCorrupt)
			}
		}
		var keys uint64
		for lo := uint64(0); lo < g.buckets(); lo += g.gsz {
			slots, count, err := loadGroup(tx, g, lo)
			if err != nil {
				return err
			}
			chained := uint64(0)
			for i, e := range slots[:g.gsz] {
				for ; e != 0; chained++ {
					if g.v2() && chained == count {
						return fmt.Errorf("%w: bucket group %d chains more than its %d keys", ErrDataCorrupt, lo/slotGroup, count)
					}
					k, next, _, err := loadEntry(tx, e)
					if err != nil {
						return err
					}
					if b := g.phys(k); b != lo+uint64(i) {
						return fmt.Errorf("%w: key %d chained from bucket %d, hashes to %d", ErrDataCorrupt, k, lo+uint64(i), b)
					}
					e = next
				}
			}
			if g.v2() && chained != count {
				return fmt.Errorf("%w: bucket group %d counts %d keys, chains hold %d", ErrDataCorrupt, lo/slotGroup, count, chained)
			}
			keys += chained
		}
		if g.v2() && keys != g.keys {
			return fmt.Errorf("%w: store holds %d keys, geometry counts %d", ErrDataCorrupt, keys, g.keys)
		}
		if err := kv.verifyMetaTx(tx); err != nil {
			return err
		}
		if mani := tx.Load(kv.meta + kvMetaMani); mani != 0 {
			if _, err := decodeManifest(tx, mani); err != nil {
				return err
			}
		}
		return nil
	})
}
