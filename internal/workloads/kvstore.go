package workloads

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"corundum/internal/baselines/engine"
)

// ErrDataCorrupt reports that a stored checksum failed verification: the
// media returned bytes that no committed transaction wrote. Verified
// readers surface it instead of silently returning a wrong value.
var ErrDataCorrupt = errors.New("workloads: data corruption detected")

// KVStore is the paper's "simple Key-Value store data structure using hash
// map": a fixed bucket directory with chained entries, hardened against
// at-rest media faults with checksums on every structure.
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

// Directory layout:
//
//	[nBuckets][dirCRC][slots n×8][groupCRCs ⌈n/8⌉×8]
//	[cfg][cfgCRC][mani][maniCRC][replEpoch][replSeq][replCRC][reserved]
//
// dirCRC covers the nBuckets word; groupCRC i covers slots [8i, 8i+8).
// The trailing meta words anchor the sharding and replication machinery:
// cfg packs the cluster config (epoch<<32 | shard count, 0 when never
// written), mani points at the migration/restore manifest block (0 when
// no manifest is pending), and the repl pair is the durable replication
// cursor {epoch, seq} — on a replica, the last frame applied; on a
// primary, the last sequence this shard committed (see ApplyWithCursor).
// Each slot carries its own checksum so a media fault in any of them is
// a loud ErrDataCorrupt, never silent misrouting or silent re-apply.
const (
	slotGroup = 8
	kvMetaLen = 64 // [cfg][cfgCRC][mani][maniCRC][replEpoch][replSeq][replCRC][reserved]

	kvMetaCfg  = 0  // offset of the config word within the meta area
	kvMetaMani = 16 // offset of the manifest-pointer word within the meta area
	kvMetaRepl = 32 // offset of the replication cursor pair within the meta area
)

// KVStore is a persistent hash map over one engine pool.
type KVStore struct {
	pool     engine.Pool
	dir      uint64 // offset of the directory block
	buckets  uint64 // offset of the slot array
	groupCRC uint64 // offset of the slot-group checksum array
	meta     uint64 // offset of the config/manifest meta words
	nBuckets uint64
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

func groups(n uint64) uint64 { return (n + slotGroup - 1) / slotGroup }

// NewKVStore initializes a store with nBuckets chains (rounded up to a
// power of two).
func NewKVStore(p engine.Pool, nBuckets int) (*KVStore, error) {
	n := uint64(1)
	for n < uint64(nBuckets) {
		n <<= 1
	}
	kv := &KVStore{pool: p, nBuckets: n}
	err := p.Tx(func(tx engine.Tx) error {
		dir, err := tx.Alloc(16 + n*8 + groups(n)*8 + kvMetaLen)
		if err != nil {
			return err
		}
		kv.dir = dir
		kv.buckets = dir + 16
		kv.groupCRC = kv.buckets + n*8
		kv.meta = kv.groupCRC + groups(n)*8
		if err := tx.Store(dir, n); err != nil {
			return err
		}
		if err := tx.Store(dir+8, wordsCRC(n)); err != nil {
			return err
		}
		zero := make([]byte, n*8)
		if err := tx.StoreBytes(kv.buckets, zero); err != nil {
			return err
		}
		for g := uint64(0); g < groups(n); g++ {
			lo, hi := g*slotGroup, min((g+1)*slotGroup, n)
			if err := tx.Store(kv.groupCRC+g*8, wordsCRC(make([]uint64, hi-lo)...)); err != nil {
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
		return tx.SetRoot(dir)
	})
	if err != nil {
		return nil, err
	}
	return kv, nil
}

// AttachKVStore reconnects to a store previously created in the pool,
// verifying the directory header's checksum and the config/manifest meta
// slots first: a store whose routing metadata cannot be trusted must not
// serve at all, because a wrong shard count silently misroutes every key.
func AttachKVStore(p engine.Pool) (*KVStore, error) {
	dir := p.Root()
	kv := &KVStore{pool: p, dir: dir, buckets: dir + 16}
	err := p.Tx(func(tx engine.Tx) error {
		n := tx.Load(dir)
		if tx.Load(dir+8) != wordsCRC(n) {
			return fmt.Errorf("%w: directory header", ErrDataCorrupt)
		}
		kv.nBuckets = n
		kv.groupCRC = kv.buckets + n*8
		kv.meta = kv.groupCRC + groups(n)*8
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
	})
	if err != nil {
		return nil, err
	}
	return kv, nil
}

// fibHash spreads keys across buckets (Fibonacci hashing).
func (kv *KVStore) bucket(key uint64) uint64 {
	h := key * 0x9E3779B97F4A7C15
	return h & (kv.nBuckets - 1)
}

// loadSlot reads bucket slot b after verifying its group checksum.
func (kv *KVStore) loadSlot(tx engine.Tx, b uint64) (uint64, error) {
	g := b / slotGroup
	lo, hi := g*slotGroup, min((g+1)*slotGroup, kv.nBuckets)
	words := make([]uint64, 0, slotGroup)
	for i := lo; i < hi; i++ {
		words = append(words, tx.Load(kv.buckets+i*8))
	}
	if tx.Load(kv.groupCRC+g*8) != wordsCRC(words...) {
		return 0, fmt.Errorf("%w: bucket group %d", ErrDataCorrupt, g)
	}
	return words[b-lo], nil
}

// storeSlot writes bucket slot b and refreshes its group checksum in the
// same transaction.
func (kv *KVStore) storeSlot(tx engine.Tx, b, val uint64) error {
	if err := tx.Store(kv.buckets+b*8, val); err != nil {
		return err
	}
	g := b / slotGroup
	lo, hi := g*slotGroup, min((g+1)*slotGroup, kv.nBuckets)
	words := make([]uint64, 0, slotGroup)
	for i := lo; i < hi; i++ {
		words = append(words, tx.Load(kv.buckets+i*8))
	}
	return tx.Store(kv.groupCRC+g*8, wordsCRC(words...))
}

// loadEntry reads and verifies one chain entry.
func loadEntry(tx engine.Tx, e uint64) (key, next, val uint64, err error) {
	key, next, val = tx.Load(e+kvKey), tx.Load(e+kvNext), tx.Load(e+kvVal)
	if tx.Load(e+kvCRC) != entryCRC(key, next, val) {
		return 0, 0, 0, fmt.Errorf("%w: entry %#x", ErrDataCorrupt, e)
	}
	return key, next, val, nil
}

// storeValCRC overwrites an entry's value and checksum with one
// contiguous store (they are adjacent by layout).
func storeValCRC(tx engine.Tx, e, key, next, val uint64) error {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], val)
	binary.LittleEndian.PutUint64(buf[8:], entryCRC(key, next, val))
	return tx.StoreBytes(e+kvVal, buf[:])
}

// Put inserts or updates key (the paper's PUT).
func (kv *KVStore) Put(key, val uint64) error {
	return kv.pool.Tx(func(tx engine.Tx) error {
		return kv.putTx(tx, key, val)
	})
}

func (kv *KVStore) putTx(tx engine.Tx, key, val uint64) error {
	b := kv.bucket(key)
	head, err := kv.loadSlot(tx, b)
	if err != nil {
		return err
	}
	for e := head; e != 0; {
		k, next, _, err := loadEntry(tx, e)
		if err != nil {
			return err
		}
		if k == key {
			return storeValCRC(tx, e, key, next, val)
		}
		e = next
	}
	e, err := tx.Alloc(kvEntry)
	if err != nil {
		return err
	}
	var buf [kvEntry]byte
	binary.LittleEndian.PutUint64(buf[kvKey:], key)
	binary.LittleEndian.PutUint64(buf[kvNext:], head)
	binary.LittleEndian.PutUint64(buf[kvVal:], val)
	binary.LittleEndian.PutUint64(buf[kvCRC:], entryCRC(key, head, val))
	if err := tx.StoreBytes(e, buf[:]); err != nil {
		return err
	}
	return kv.storeSlot(tx, b, e)
}

// Get looks up key (the paper's GET). Every entry touched on the way is
// checksum-verified; a mismatch returns ErrDataCorrupt rather than a
// possibly-wrong value.
func (kv *KVStore) Get(key uint64) (val uint64, found bool, err error) {
	err = kv.pool.Tx(func(tx engine.Tx) error {
		e, err := kv.loadSlot(tx, kv.bucket(key))
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
	err = kv.pool.Tx(func(tx engine.Tx) error {
		removed, err = kv.deleteTx(tx, key)
		return err
	})
	return removed, err
}

func (kv *KVStore) deleteTx(tx engine.Tx, key uint64) (bool, error) {
	b := kv.bucket(key)
	head, err := kv.loadSlot(tx, b)
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
				if err := kv.storeSlot(tx, b, next); err != nil {
					return false, err
				}
			} else {
				if err := tx.Store(prevE+kvNext, next); err != nil {
					return false, err
				}
				if err := tx.Store(prevE+kvCRC, entryCRC(prevKey, next, prevVal)); err != nil {
					return false, err
				}
			}
			return true, tx.Free(e, kvEntry)
		}
		prevE, prevKey, prevVal = e, k, v
		e = next
	}
	return false, nil
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
	err := kv.pool.Tx(func(tx engine.Tx) error {
		for i, op := range ops {
			if op.Del {
				removed, err := kv.deleteTx(tx, op.Key)
				if err != nil {
					return err
				}
				res[i] = removed
			} else {
				if err := kv.putTx(tx, op.Key, op.Val); err != nil {
					return err
				}
				res[i] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Scan visits every key/value pair (in bucket order, not key order) until
// fn returns false. It runs as a read-only transaction with the same
// verified-read discipline as Get.
func (kv *KVStore) Scan(fn func(key, val uint64) bool) error {
	return kv.pool.Tx(func(tx engine.Tx) error {
		for b := uint64(0); b < kv.nBuckets; b++ {
			e, err := kv.loadSlot(tx, b)
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
		return nil
	})
}

// ScanRange visits every key/value pair whose key hashes into a bucket in
// [lo, hi) until fn returns false. Migration moves keys in bucket-index
// windows, so "which keys does this batch cover" and "which keys has the
// cursor passed" are both bucket-range questions; ScanRange is the verified
// walk both use.
func (kv *KVStore) ScanRange(lo, hi uint64, fn func(key, val uint64) bool) error {
	if hi > kv.nBuckets {
		hi = kv.nBuckets
	}
	return kv.pool.Tx(func(tx engine.Tx) error {
		for b := lo; b < hi; b++ {
			e, err := kv.loadSlot(tx, b)
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
		return nil
	})
}

// Buckets reports the directory size. Migration cursors count buckets, so
// callers need the bound; Bucket reports where a key hashes, which is the
// coordinate system those cursors are compared in.
func (kv *KVStore) Buckets() uint64 { return kv.nBuckets }

// Bucket reports the directory index key hashes to in this store.
func (kv *KVStore) Bucket(key uint64) uint64 { return kv.bucket(key) }

// Len counts entries (test helper).
func (kv *KVStore) Len() (int, error) {
	n := 0
	err := kv.Scan(func(_, _ uint64) bool { n++; return true })
	return n, err
}

// VerifyIntegrity walks the whole store — directory header, every slot
// group, every chain entry — verifying each checksum. It returns nil when
// everything checks out and an ErrDataCorrupt-wrapped diagnosis naming
// the first damaged structure otherwise. Servers run it at startup and on
// demand (SCRUB).
func (kv *KVStore) VerifyIntegrity() error {
	return kv.pool.Tx(func(tx engine.Tx) error {
		n := tx.Load(kv.dir)
		if tx.Load(kv.dir+8) != wordsCRC(n) {
			return fmt.Errorf("%w: directory header", ErrDataCorrupt)
		}
		if n != kv.nBuckets {
			return fmt.Errorf("%w: directory claims %d buckets, attached with %d", ErrDataCorrupt, n, kv.nBuckets)
		}
		for b := uint64(0); b < kv.nBuckets; b++ {
			e, err := kv.loadSlot(tx, b)
			if err != nil {
				return err
			}
			for e != 0 {
				_, next, _, err := loadEntry(tx, e)
				if err != nil {
					return err
				}
				e = next
			}
		}
		for _, m := range []struct {
			off  uint64
			name string
		}{{kvMetaCfg, "config"}, {kvMetaMani, "manifest pointer"}} {
			w := tx.Load(kv.meta + m.off)
			if tx.Load(kv.meta+m.off+8) != wordsCRC(w) {
				return fmt.Errorf("%w: %s meta slot", ErrDataCorrupt, m.name)
			}
		}
		if err := kv.verifyReplCursorTx(tx); err != nil {
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
