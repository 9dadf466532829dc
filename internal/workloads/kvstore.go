package workloads

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"corundum/internal/baselines/engine"
	"corundum/internal/crc"
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
// which predates growth). dirCRC names the format by what it covers
// (dirCRC below): wordsCRC(n0) on v1, wordsCRC(n0, geo) on v2, and
// wordsCRC(n0, geo, 3) on v3, whose splits read the mixed hash (hash). A
// binary that predates a format refuses its images at the directory
// header rather than misreading them.
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

// The store's on-media formats, told apart by the directory header's
// checksum (dirCRC).
const (
	formatV1 = 1 // no geometry record: served at base geometry, never grows
	formatV2 = 2 // grows; split bits from key·fib
	formatV3 = 3 // grows; split bits from the mixed key (geometry.hash)
)

// dirCRC is the directory header's checksum on a format-v image. A v3
// header covers the version itself as one more word, so the v2 check
// refuses it.
func dirCRC(v, n0, rec uint64) uint64 {
	switch v {
	case formatV1:
		return wordsCRC(n0)
	case formatV2:
		return wordsCRC(n0, rec)
	}
	return wordsCRC(n0, rec, v)
}

// headerFormat reports the format whose checksum the directory header hdr
// carries, given the header's n0 and the meta area's record link; 0 when
// it carries none (damage, or a format newer than this binary).
func headerFormat(n0, rec, hdr uint64) uint64 {
	if rec == 0 {
		if hdr == dirCRC(formatV1, n0, 0) {
			return formatV1
		}
		return 0
	}
	for _, v := range [...]uint64{formatV2, formatV3} {
		if hdr == dirCRC(v, n0, rec) {
			return v
		}
	}
	return 0
}

// KVStore is a persistent hash map over one engine pool. Mutations must
// be serialized by the caller (the server's store lock); reads may run
// concurrently with each other, and the View reads with a mutation.
type KVStore struct {
	pool engine.Pool
	dir  uint64 // offset of the directory block
	meta uint64 // offset of the config/manifest/cursor meta words
	size uint64 // the pool's size, which bounds every offset a walk reads
	geo  atomic.Pointer[geometry]
	keys atomic.Uint64 // live keys as of the last commit; 0 on a v1 image
	w    batch         // the one mutation in flight (mutations are serialized)
}

// geometry is the store's physical shape as of one commit: how many
// buckets exist, which one a key lives in, and where its slot is.
// Committers publish a fresh one after every transaction that changes it
// (inside the store lock's odd window, so lock-free readers that loaded
// the old one fail their bracket); readers load it once per walk. The
// key count lives beside it (KVStore.keys), so a batch that only moves
// the count publishes nothing new.
type geometry struct {
	n0, shift uint64   // base bucket count (a power of two) and its log2
	gsz       uint64   // buckets per slot group: min(slotGroup, n0)
	level     uint64   // completed doublings: buckets [0, n0<<level) form a full level
	split     uint64   // next bucket to split this level; those below it already have
	segs      []uint64 // slot-array offset of each n0-bucket segment; segs[0] is the base directory's

	rec      uint64 // geometry record; 0 on a v1 image served at base geometry
	v3       bool   // splits read the mixed hash; false on v1 and v2 images
	table    uint64 // segment-table block (segments 1..), 0 before the first
	tableCap uint64 // entries the table block holds
	tableCRC uint64 // wordsCRC over segs[1:]
}

// v2 reports whether the image carries a geometry record, and with it
// key counts and growth: true on v2 and v3 images.
func (g *geometry) v2() bool { return g.rec != 0 }

// format is the image's on-media format version.
func (g *geometry) format() uint64 {
	switch {
	case g.v3:
		return formatV3
	case g.v2():
		return formatV2
	}
	return formatV1
}

// buckets is the physical bucket count.
func (g *geometry) buckets() uint64 { return g.n0<<g.level + g.split }

// hash is the key's linear-hashing hash. Its low log2(n0) bits are the
// base coordinate, key·fib & (n0-1), on every format; the bits above them
// are the ones splits read. A product's low bits depend only on the
// multiplicand's low bits, so key·fib's ignore a key's high half: tenant
// keys (t+1)<<40 | id that share an id would never split apart. On a v3
// image the split bits come from the key with a finaliser of its high
// half folded in, which is zero for keys below 2^32: those hash exactly
// as on v2, so a store of them is placed, and grows, exactly as before.
// A grown v2 image keeps key·fib, the rule its keys were split by.
func (g *geometry) hash(key uint64) uint64 {
	h := key * fib
	if g.v3 {
		h = (key^mix(key>>32))*fib&^(g.n0-1) | h&(g.n0-1)
	}
	return h
}

// mix is a xorshift-multiply finaliser (Stafford's Mix13, splitmix64's
// output stage): a bijection with mix(0) == 0. Its constants differ from
// ShardFor's murmur3 fmix64, so which shard a key lands on says nothing
// about which bucket.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// phys is the physical bucket key lives in: linear hashing over the low
// bits of its hash, one more bit for buckets already split this level.
// Its low log2(n0) bits are always the key's base coordinate.
func (g *geometry) phys(key uint64) uint64 {
	h := g.hash(key)
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

// wordsCRC is crc32.ChecksumIEEE over the little-endian bytes of words,
// widened to a word. Every chain hop of every read pays for one of
// these, so it builds no byte buffer (crc.Words).
func wordsCRC(words ...uint64) uint64 { return uint64(crc.Words(words...)) }

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
	kv := &KVStore{pool: p, size: uint64(p.Device().Size())}
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
		g.rec, g.v3 = rec, true
		if err := tx.Store(dir, n); err != nil {
			return err
		}
		if err := tx.Store(dir+8, dirCRC(formatV3, n, rec)); err != nil {
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
// misroutes every key. A v1 image (no geometry record) and a v2 image that
// never split are upgraded to v3 in one transaction; a pool that cannot
// take the write (read-only, degraded, out of space) serves them as they
// are, a v1 image at base geometry without growth. A grown v2 image is
// served, and keeps growing, by the v2 split rule.
func AttachKVStore(p engine.Pool) (*KVStore, error) {
	dir := p.Root()
	size := uint64(p.Device().Size())
	kv := &KVStore{pool: p, dir: dir, size: size}
	var g *geometry
	var keys uint64
	err := p.Tx(func(tx engine.Tx) error {
		n := tx.Load(dir)
		if n == 0 || n&(n-1) != 0 || n > size/16 || dir+16+segBytes(n)+kvMetaLen > size {
			return fmt.Errorf("%w: directory header", ErrDataCorrupt)
		}
		kv.meta = dir + 16 + segBytes(n)
		rec := tx.Load(kv.meta + kvMetaGeo)
		v := headerFormat(n, rec, tx.Load(dir+8))
		if v == 0 {
			return fmt.Errorf("%w: directory header", ErrDataCorrupt)
		}
		if err := kv.verifyMetaTx(tx); err != nil {
			return err
		}
		g = baseGeometry(dir, n)
		g.v3 = v == formatV3
		if rec == 0 {
			return nil
		}
		if err := loadRecord(tx, g, rec, size); err != nil {
			return err
		}
		for lo := uint64(0); lo < g.buckets(); lo += g.gsz {
			_, w := g.group(lo)
			keys += tx.Load(w) >> 32
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !g.v3 && g.buckets() == g.n0 {
		if up, n, err := kv.upgrade(g, keys); err == nil {
			g, keys = up, n
		}
	}
	kv.geo.Store(g)
	kv.keys.Store(keys)
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

// batch is one mutating transaction's working state: the geometry it
// grows, the live-key count, and how many keys its ops inserted and
// deleted. A store keeps one and reuses it — the split scratch, the
// store buffer, the results and the transaction body bound once — so a
// commit allocates nothing.
type batch struct {
	kv                *KVStore
	txn               func(engine.Tx) error // m.run, bound on first use
	r                 wordReader            // the transaction's reads
	g                 geometry
	keys              uint64 // live keys; not maintained on a v1 image
	inserted, deleted uint64
	scratch           []chainEntry // one split's walk, reused across splits
	buf               [groupBytes]byte

	// The work: the ops, one result per op, and a write riding the same
	// transaction (nil for a plain Apply).
	ops  []Op
	res  []bool
	then func(tx engine.Tx) error

	// after holds writes a planted split bug defers to a follow-up
	// transaction (export_test.go); always empty otherwise.
	after []func(engine.Tx) error
}

// mutate runs ops, then the write then makes (when non-nil), and the
// growth they call for in one failure-atomic transaction, then publishes
// the resulting key count and geometry. Every mutation of the keyspace
// goes through here. It answers in the store's results slice, one element
// per op, which stays valid until the next mutation.
func (kv *KVStore) mutate(ops []Op, then func(tx engine.Tx) error) ([]bool, error) {
	cur := kv.geo.Load()
	m := &kv.w
	if m.txn == nil {
		m.kv, m.txn = kv, m.run
	}
	m.ops, m.then = ops, then
	m.res = slices.Grow(m.res[:0], len(ops))[:len(ops)]
	m.g, m.keys, m.inserted, m.deleted, m.after = *cur, kv.keys.Load(), 0, 0, nil
	err := kv.pool.Tx(m.txn)
	m.ops, m.then = nil, nil
	if err != nil {
		return nil, err
	}
	if m.g.buckets() != cur.buckets() {
		g := m.g
		kv.geo.Store(&g)
	}
	kv.keys.Store(m.keys)
	if len(m.after) > 0 {
		err = kv.pool.Tx(func(tx engine.Tx) error {
			for _, f := range m.after {
				if err := f(tx); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return m.res, nil
}

// run is the transaction mutate opens.
func (m *batch) run(tx engine.Tx) error {
	m.r = m.kv.txReader(tx)
	if err := m.apply(tx); err != nil {
		return err
	}
	if m.then != nil {
		if err := m.then(tx); err != nil {
			return err
		}
	}
	return m.grow(tx)
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
	head, err := loadSlot(&m.r, g, b)
	if err != nil {
		return err
	}
	for e := head; e != 0; {
		k, next, _, err := loadEntry(&m.r, e)
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
	head, err := loadSlot(&m.r, g, b)
	if err != nil {
		return false, err
	}
	var prevE, prevKey, prevVal uint64
	for e := head; e != 0; {
		k, next, v, err := loadEntry(&m.r, e)
		if err != nil {
			return false, err
		}
		if k == key {
			if prevE == 0 {
				err = m.storeSlot(tx, b, next, -1)
			} else if err = relink(tx, prevE, prevKey, next, prevVal); err == nil && g.v2() {
				slots, count, _ := loadGroup(&m.r, g, b)
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

// apply runs the batch's ops in order, recording each one's result.
func (m *batch) apply(tx engine.Tx) error {
	for i, op := range m.ops {
		if op.Del {
			removed, err := m.del(tx, op.Key)
			if err != nil {
				return err
			}
			m.res[i] = removed
		} else {
			if err := m.put(tx, op.Key, op.Val); err != nil {
				return err
			}
			m.res[i] = true
		}
	}
	return nil
}

// Put inserts or updates key (the paper's PUT).
func (kv *KVStore) Put(key, val uint64) error {
	_, err := kv.mutate([]Op{{Key: key, Val: val}}, nil)
	return err
}

// Delete removes key and reclaims its entry.
func (kv *KVStore) Delete(key uint64) (removed bool, err error) {
	res, err := kv.mutate([]Op{{Del: true, Key: key}}, nil)
	if err != nil {
		return false, err
	}
	return res[0], nil
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
//
// The returned slice is the store's own and stays valid until its next
// mutation: reusing it is what lets a commit allocate nothing.
func (kv *KVStore) Apply(ops []Op) ([]bool, error) {
	if len(ops) == 0 {
		return kv.w.res[:0], nil
	}
	return kv.mutate(ops, nil)
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
// from the published count and geometry (O(1), safe against a concurrent
// commit; the two may be one commit apart). keys is 0 on a v1 image
// served at base geometry.
func (kv *KVStore) Shape() (keys, buckets uint64) {
	return kv.keys.Load(), kv.geo.Load().buckets()
}

// Len counts entries (test helper).
func (kv *KVStore) Len() (int, error) {
	n := 0
	err := kv.Scan(func(_, _ uint64) bool { n++; return true })
	return n, err
}

// ChainStats is the shape of a store's chains, as an integrity walk
// measured it.
type ChainStats struct {
	Keys    uint64 // keys chained
	Longest uint64 // entries in the longest chain
	HitSum  uint64 // the sum over keys of each one's 1-based position in its chain
}

// MeanHit is what an average GET of a present key walks: the mean over
// keys of their 1-based chain position, 0 on an empty store.
func (s ChainStats) MeanHit() float64 {
	if s.Keys == 0 {
		return 0
	}
	return float64(s.HitSum) / float64(s.Keys)
}

// VerifyIntegrity walks the whole store — directory header, geometry
// record, every slot group, every chain entry — verifying each checksum,
// that every key sits in the physical bucket its hash names, and that
// every group's key count matches its chains. It returns the chains'
// shape and nil when everything checks out, and an ErrDataCorrupt-wrapped
// diagnosis naming the first damaged structure otherwise. Servers run it
// at startup and on demand (SCRUB).
func (kv *KVStore) VerifyIntegrity() (ChainStats, error) {
	g := kv.geo.Load()
	var st ChainStats
	err := kv.pool.Tx(func(tx engine.Tx) error {
		st = ChainStats{}
		n, rec := tx.Load(kv.dir), tx.Load(kv.meta+kvMetaGeo)
		if tx.Load(kv.dir+8) != dirCRC(g.format(), n, rec) {
			return fmt.Errorf("%w: directory header", ErrDataCorrupt)
		}
		if n != g.n0 || rec != g.rec {
			return fmt.Errorf("%w: directory claims %d buckets and record %#x, attached with %d and %#x",
				ErrDataCorrupt, n, rec, g.n0, g.rec)
		}
		if g.v2() {
			disk := baseGeometry(kv.dir, n)
			if err := loadRecord(tx, disk, rec, kv.size); err != nil {
				return err
			}
			if disk.level != g.level || disk.split != g.split || len(disk.segs) != len(g.segs) {
				return fmt.Errorf("%w: geometry record disagrees with the attached geometry", ErrDataCorrupt)
			}
		}
		r := kv.txReader(tx)
		for lo := uint64(0); lo < g.buckets(); lo += g.gsz {
			slots, count, err := loadGroup(&r, g, lo)
			if err != nil {
				return fmt.Errorf("bucket group %d: %w", lo/slotGroup, err)
			}
			chained := uint64(0)
			for i, e := range slots[:g.gsz] {
				n := uint64(0)
				for ; e != 0; n++ {
					if g.v2() && chained+n == count {
						return fmt.Errorf("%w: bucket group %d chains more than its %d keys", ErrDataCorrupt, lo/slotGroup, count)
					}
					if n == maxChainSteps {
						return fmt.Errorf("bucket %d: %w", lo+uint64(i), errChain)
					}
					k, next, _, err := loadEntry(&r, e)
					if err != nil {
						return fmt.Errorf("bucket %d, entry %#x: %w", lo+uint64(i), e, err)
					}
					if b := g.phys(k); b != lo+uint64(i) {
						return fmt.Errorf("%w: key %d chained from bucket %d, hashes to %d", ErrDataCorrupt, k, lo+uint64(i), b)
					}
					e = next
				}
				chained += n
				st.Longest = max(st.Longest, n)
				st.HitSum += n * (n + 1) / 2
			}
			if g.v2() && chained != count {
				return fmt.Errorf("%w: bucket group %d counts %d keys, chains hold %d", ErrDataCorrupt, lo/slotGroup, count, chained)
			}
			st.Keys += chained
		}
		if counted := kv.keys.Load(); g.v2() && st.Keys != counted {
			return fmt.Errorf("%w: store holds %d keys, geometry counts %d", ErrDataCorrupt, st.Keys, counted)
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
	return st, err
}
