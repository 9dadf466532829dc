package workloads

import (
	"fmt"

	"corundum/internal/baselines/engine"
)

// The replication cursor is the persistent heart of crash-consistent
// primary→replica streaming (internal/repl): a {epoch, seq} pair in the
// store's checksummed meta area recording how far this shard has
// participated in the commit-ordered replication stream.
//
// On a REPLICA, the cursor names the last stream frame durably applied
// to this store: frame apply and cursor advance are fused into ONE
// failure-atomic transaction (ApplyWithCursor), so a power cut at any
// device op leaves either "frame absent, cursor behind" (the frame is
// re-sent and re-applied) or "frame present, cursor advanced" (the frame
// is deduplicated on re-send) — never a half-applied frame counted as
// done.
//
// On a PRIMARY, every group-commit batch rides through ApplyWithCursor
// too: the batch's global stream sequence is written into this shard's
// cursor inside the batch's own transaction, riding the commit fence the
// batch pays anyway (zero extra fences — the same trick as the slab
// cache's claim protocol). After a crash, the primary recovers its last
// issued sequence as the max cursor across shards, so stream numbering
// never regresses and a caught-up replica resumes exactly where it was.
//
// The epoch word is the failover generation: PROMOTE durably bumps it on
// the new primary, and a stale peer (smaller epoch) is refused an
// incremental resume and must re-sync from a snapshot.

// ReadReplCursor reports this shard's durable replication cursor. A zero
// pair means the store never participated in replication.
func (kv *KVStore) ReadReplCursor() (epoch, seq uint64, err error) {
	err = kv.pool.Tx(func(tx engine.Tx) error {
		epoch, seq = tx.Load(kv.meta+kvMetaRepl), tx.Load(kv.meta+kvMetaRepl+8)
		if tx.Load(kv.meta+kvMetaRepl+16) != wordsCRC(epoch, seq) {
			return fmt.Errorf("%w: replication cursor meta slot", ErrDataCorrupt)
		}
		return nil
	})
	return epoch, seq, err
}

// WriteReplCursor durably replaces the cursor in one failure-atomic
// transaction (promotion epoch bumps, bootstrap resets).
func (kv *KVStore) WriteReplCursor(epoch, seq uint64) error {
	return kv.pool.Tx(func(tx engine.Tx) error {
		return kv.writeReplCursorTx(tx, epoch, seq)
	})
}

func (kv *KVStore) writeReplCursorTx(tx engine.Tx, epoch, seq uint64) error {
	if err := tx.Store(kv.meta+kvMetaRepl, epoch); err != nil {
		return err
	}
	if err := tx.Store(kv.meta+kvMetaRepl+8, seq); err != nil {
		return err
	}
	return tx.Store(kv.meta+kvMetaRepl+16, wordsCRC(epoch, seq))
}

// verifyReplCursorTx checks the cursor slot's checksum (attach, scrub).
func (kv *KVStore) verifyReplCursorTx(tx engine.Tx) error {
	e, q := tx.Load(kv.meta+kvMetaRepl), tx.Load(kv.meta+kvMetaRepl+8)
	if tx.Load(kv.meta+kvMetaRepl+16) != wordsCRC(e, q) {
		return fmt.Errorf("%w: replication cursor meta slot", ErrDataCorrupt)
	}
	return nil
}

// ApplyWithCursor runs every op AND advances the replication cursor to
// {epoch, seq} in ONE failure-atomic transaction — the replication
// stream's crash-atomicity primitive on both ends of the link. ops may
// be empty: the transaction then just advances the cursor (a replica
// acknowledging a frame none of whose keys land on this shard).
// Like Apply's, the returned slice stays valid until the next mutation.
func (kv *KVStore) ApplyWithCursor(ops []Op, epoch, seq uint64) ([]bool, error) {
	return kv.mutate(ops, func(tx engine.Tx) error { return kv.writeReplCursorTx(tx, epoch, seq) })
}
