package workloads

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"corundum/internal/baselines/engine"
)

// The migration manifest is the persistent heart of crash-safe
// resharding: a heap block, anchored in the store's checksummed meta
// slot, that records how far a shard split/merge (or restore) has
// progressed. Every state transition — recording a batch of moving keys,
// advancing the cursor past a migrated window, clearing the manifest at
// commit — is one undo-logged transaction, so a power cut at any device
// op leaves either the old manifest or the new one, never a blend.
//
// Block layout (all little-endian 8-byte words):
//
//	[kind][epoch][oldN][newN][cursor][batchBuckets][batchLen][reserved]
//	[batch keys ×batchLen]
//	[crc32 over every preceding byte, widened to a word]
//
// The batch is variable-length, so the block is re-allocated on every
// write (free old + alloc new + update the meta slot, all in the same
// transaction): no fixed capacity ever bounds a migration batch. The
// trailing CRC covers the whole block as bytes — wordsCRC's fixed buffer
// caps at a slot group, manifests do not.
//
// Separately, the config word in the meta area packs the cluster layout
// the shard last committed to: epoch<<32 | shard count. The config write
// on shard 0 is THE commit point of a migration; manifests with
// epoch <= config epoch are stale leftovers, manifests with a larger
// epoch are active and must be resumed.

// Manifest kinds. A reshard manifest drives a shard split/merge; a
// restore manifest marks a RESTORE in progress so a crash mid-restore
// wipes the half-written pools at next boot instead of serving them.
const (
	ManifestReshard uint64 = 1
	ManifestRestore uint64 = 2
)

const manifestHeaderWords = 8

// Manifest is the decoded migration record of one shard.
type Manifest struct {
	// Kind is ManifestReshard or ManifestRestore.
	Kind uint64
	// Epoch is the config epoch this migration is moving the cluster TO.
	// Commit makes the config epoch catch up; a manifest whose epoch is
	// not ahead of the config is stale.
	Epoch uint64
	// OldN and NewN are the shard counts before and after the move.
	OldN, NewN uint64
	// Cursor is the next bucket index on this source shard not yet
	// migrated: keys hashing below it live at their NewN home, keys at or
	// above it still live here.
	Cursor uint64
	// BatchBuckets is the width of the in-flight batch window
	// [Cursor, Cursor+BatchBuckets); zero when no batch is in flight.
	BatchBuckets uint64
	// Batch lists the keys recorded for the in-flight window: the keys a
	// recovering migration must reconcile at their targets (re-put if
	// still present at the source, delete if not) before advancing.
	Batch []uint64
}

func (m *Manifest) encode() []byte {
	buf := make([]byte, 8*(manifestHeaderWords+len(m.Batch)+1))
	words := []uint64{m.Kind, m.Epoch, m.OldN, m.NewN, m.Cursor, m.BatchBuckets, uint64(len(m.Batch)), 0}
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	for i, k := range m.Batch {
		binary.LittleEndian.PutUint64(buf[8*(manifestHeaderWords+i):], k)
	}
	crc := uint64(crc32.ChecksumIEEE(buf[:len(buf)-8]))
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], crc)
	return buf
}

// decodeManifest reads and verifies the manifest block at off.
func decodeManifest(tx engine.Tx, off uint64) (*Manifest, error) {
	hdr := make([]byte, 8*manifestHeaderWords)
	tx.ReadBytes(off, hdr)
	batchLen := binary.LittleEndian.Uint64(hdr[8*6:])
	if batchLen > 1<<20 {
		return nil, fmt.Errorf("%w: manifest claims %d batch keys", ErrDataCorrupt, batchLen)
	}
	buf := make([]byte, 8*(manifestHeaderWords+batchLen+1))
	tx.ReadBytes(off, buf)
	want := binary.LittleEndian.Uint64(buf[len(buf)-8:])
	got := uint64(crc32.ChecksumIEEE(buf[:len(buf)-8]))
	if got != want {
		return nil, fmt.Errorf("%w: manifest block at %#x", ErrDataCorrupt, off)
	}
	m := &Manifest{
		Kind:         binary.LittleEndian.Uint64(buf[0:]),
		Epoch:        binary.LittleEndian.Uint64(buf[8:]),
		OldN:         binary.LittleEndian.Uint64(buf[16:]),
		NewN:         binary.LittleEndian.Uint64(buf[24:]),
		Cursor:       binary.LittleEndian.Uint64(buf[32:]),
		BatchBuckets: binary.LittleEndian.Uint64(buf[40:]),
	}
	if batchLen > 0 {
		m.Batch = make([]uint64, batchLen)
		for i := range m.Batch {
			m.Batch[i] = binary.LittleEndian.Uint64(buf[8*(manifestHeaderWords+uint64(i)):])
		}
	}
	if m.Kind != ManifestReshard && m.Kind != ManifestRestore {
		return nil, fmt.Errorf("%w: manifest kind %d", ErrDataCorrupt, m.Kind)
	}
	return m, nil
}

// manifestBlockSize reports the allocated size of the block at off so it
// can be freed. It trusts only the verified batchLen word.
func manifestBlockSize(tx engine.Tx, off uint64) (uint64, error) {
	hdr := make([]byte, 8*manifestHeaderWords)
	tx.ReadBytes(off, hdr)
	batchLen := binary.LittleEndian.Uint64(hdr[8*6:])
	if batchLen > 1<<20 {
		return 0, fmt.Errorf("%w: manifest claims %d batch keys", ErrDataCorrupt, batchLen)
	}
	return 8 * (manifestHeaderWords + batchLen + 1), nil
}

// packConfig packs a cluster config into the meta word: epoch<<32 | n.
// The zero word means "config never written" (epoch 0 is reserved).
func packConfig(shards int, epoch uint64) uint64 { return epoch<<32 | uint64(shards)&0xFFFFFFFF }

// ReadConfig reports the committed cluster layout recorded in this
// store: shard count and epoch. shards == 0 means the config was never
// written (a pre-sharding store or a fresh one not yet initialized).
func (kv *KVStore) ReadConfig() (shards int, epoch uint64, err error) {
	err = kv.pool.Tx(func(tx engine.Tx) error {
		w := tx.Load(kv.meta + kvMetaCfg)
		if tx.Load(kv.meta+kvMetaCfg+8) != wordsCRC(w) {
			return fmt.Errorf("%w: config meta slot", ErrDataCorrupt)
		}
		shards, epoch = int(w&0xFFFFFFFF), w>>32
		return nil
	})
	return shards, epoch, err
}

// WriteConfig durably commits the cluster layout {shards, epoch} into
// this store. On shard 0 this is the migration commit point: once the
// new config is durable, manifests at or below its epoch are stale.
func (kv *KVStore) WriteConfig(shards int, epoch uint64) error {
	return kv.pool.Tx(func(tx engine.Tx) error {
		return kv.writeConfigTx(tx, shards, epoch)
	})
}

func (kv *KVStore) writeConfigTx(tx engine.Tx, shards int, epoch uint64) error {
	w := packConfig(shards, epoch)
	if err := tx.Store(kv.meta+kvMetaCfg, w); err != nil {
		return err
	}
	return tx.Store(kv.meta+kvMetaCfg+8, wordsCRC(w))
}

// ReadManifest returns this shard's pending migration manifest, or nil
// when none is recorded.
func (kv *KVStore) ReadManifest() (m *Manifest, err error) {
	err = kv.pool.Tx(func(tx engine.Tx) error {
		off := tx.Load(kv.meta + kvMetaMani)
		if tx.Load(kv.meta+kvMetaMani+8) != wordsCRC(off) {
			return fmt.Errorf("%w: manifest meta slot", ErrDataCorrupt)
		}
		if off == 0 {
			return nil
		}
		m, err = decodeManifest(tx, off)
		return err
	})
	return m, err
}

// WriteManifest durably replaces this shard's manifest with m (m == nil
// clears it) in one failure-atomic transaction.
func (kv *KVStore) WriteManifest(m *Manifest) error {
	return kv.pool.Tx(func(tx engine.Tx) error {
		return kv.writeManifestTx(tx, m)
	})
}

// ClearManifest removes the pending manifest, freeing its block.
func (kv *KVStore) ClearManifest() error { return kv.WriteManifest(nil) }

func (kv *KVStore) writeManifestTx(tx engine.Tx, m *Manifest) error {
	old := tx.Load(kv.meta + kvMetaMani)
	if tx.Load(kv.meta+kvMetaMani+8) != wordsCRC(old) {
		return fmt.Errorf("%w: manifest meta slot", ErrDataCorrupt)
	}
	var off uint64
	if m != nil {
		enc := m.encode()
		var err error
		off, err = tx.Alloc(uint64(len(enc)))
		if err != nil {
			return err
		}
		if err := tx.StoreBytes(off, enc); err != nil {
			return err
		}
	}
	if err := tx.Store(kv.meta+kvMetaMani, off); err != nil {
		return err
	}
	if err := tx.Store(kv.meta+kvMetaMani+8, wordsCRC(off)); err != nil {
		return err
	}
	if old != 0 {
		size, err := manifestBlockSize(tx, old)
		if err != nil {
			return err
		}
		if err := tx.Free(old, size); err != nil {
			return err
		}
	}
	return nil
}

// ApplyWithManifest runs every op AND replaces the manifest (nil clears
// it) in ONE failure-atomic transaction. This is the migration engine's
// crash-atomicity primitive: "delete the moved keys at the source and
// advance the cursor past them" must be indivisible, or a cut between
// the two would lose keys (deleted but cursor still routes reads here)
// or duplicate them (cursor advanced but keys still present).
func (kv *KVStore) ApplyWithManifest(ops []Op, m *Manifest) ([]bool, error) {
	res := make([]bool, len(ops))
	err := kv.mutate(func(tx engine.Tx, b *batch) error {
		if err := b.apply(tx, ops, res); err != nil {
			return err
		}
		return kv.writeManifestTx(tx, m)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
