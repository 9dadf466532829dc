package workloads

import (
	"errors"
	"fmt"

	"corundum/internal/pool"
)

// BootAction is what a boot does with a cluster's durable state: shard
// 0's config word and each store's manifest (manifest.go). The server,
// server.Boot, the migrate crash sweep and corundum-fsck all decide it
// here, so the sweep checks the rule the server boots with.
type BootAction int

const (
	BootFresh     BootAction = iota // nothing committed: commit the opened shard count at epoch 1
	BootCommitted                   // the committed layout stands; nothing is in flight
	BootWipe                        // a RESTORE or replica bootstrap died before its commit: wipe every store
	BootResume                      // a reshard was interrupted: resume it from its manifests
)

// BootVerdict is the boot decision over a cluster's stores.
type BootVerdict struct {
	Action BootAction
	// N is how many pools the durable state commits the deployment to: the
	// config's count, or max(OldN, NewN) while a reshard needs its sources
	// and targets open to resume. 0: nothing committed, the caller decides.
	N int
	// CfgShards and Epoch echo shard 0's committed config.
	CfgShards int
	Epoch     uint64
	// Manifest is the reshard to resume or the restore marker.
	Manifest *Manifest
	// Stale lists the shards whose manifest is not ahead of the config
	// epoch: a crash hit the cleanup after its migration or restore committed.
	Stale     []int
	Resharder *Resharder // the interrupted reshard on its durable cursors (RecoverBoot only)

	markers []int // the shards holding the restore marker
}

// DecideBoot is the read-only half of the boot decision: from shard 0's
// config and every store's manifest (stores[i] is shard i's, nil when
// the shard is down) it says what RecoverBoot would do, writing nothing
// and opening no transaction. It refuses a restore marker beside a
// reshard manifest, reshard manifests that disagree, and a reshard whose
// source count is not the committed one: no crash leaves such a state,
// and guessing would scatter the keyspace.
func DecideBoot(stores []*KVStore) (BootVerdict, error) {
	var v BootVerdict
	if stores[0] != nil {
		var err error
		if v.CfgShards, v.Epoch, err = stores[0].readConfig(deviceReader{stores[0].pool.Device()}); err != nil {
			return BootVerdict{}, fmt.Errorf("cluster config on shard 0: %w", err)
		}
	}
	var reshard, restore *Manifest
	var reshardShard int
	for i, kv := range stores {
		if kv == nil {
			continue
		}
		m, err := kv.readManifest(deviceReader{kv.pool.Device()})
		switch {
		case err != nil:
			return BootVerdict{}, fmt.Errorf("migration manifest on shard %d: %w", i, err)
		case m == nil:
		case m.Epoch <= v.Epoch:
			v.Stale = append(v.Stale, i)
		case m.Kind == ManifestRestore:
			restore = m
			v.markers = append(v.markers, i)
		case reshard == nil:
			reshard, reshardShard = m, i
		case m.Epoch != reshard.Epoch || m.OldN != reshard.OldN || m.NewN != reshard.NewN:
			return BootVerdict{}, fmt.Errorf("shards %d and %d disagree about the active migration (%d->%d@%d vs %d->%d@%d)",
				reshardShard, i, reshard.OldN, reshard.NewN, reshard.Epoch, m.OldN, m.NewN, m.Epoch)
		}
	}
	v.N = v.CfgShards
	switch {
	case restore != nil && reshard != nil:
		return BootVerdict{}, errors.New("pools hold both a restore marker and a reshard manifest; refusing to guess")
	case reshard != nil && v.CfgShards != 0 && v.CfgShards != int(reshard.OldN):
		return BootVerdict{}, fmt.Errorf("active migration moves %d->%d shards but the committed config says %d",
			reshard.OldN, reshard.NewN, v.CfgShards)
	case reshard != nil:
		v.Action, v.Manifest, v.N = BootResume, reshard, max(int(reshard.OldN), int(reshard.NewN))
	case restore != nil:
		v.Action, v.Manifest = BootWipe, restore
	case v.CfgShards > 0:
		v.Action = BootCommitted
	}
	return v, nil
}

// RecoverBoot decides (DecideBoot) and makes the decision's writes, in
// order: it clears stale manifests; after a crashed RESTORE it wipes
// every store, zeroes its replication cursor and clears the marker; with
// nothing committed it commits {len(stores), epoch 1} on shard 0; for an
// interrupted reshard it attaches a Resharder (batchBuckets, coord) to
// the durable cursors. A read-only pool keeps a stale manifest and gets
// no initial config; one that needs wiping fails the boot. The caller
// checks N against the pools it opened.
func RecoverBoot(stores []*KVStore, batchBuckets int, coord Coordinator) (BootVerdict, error) {
	v, err := DecideBoot(stores)
	if err != nil {
		return v, err
	}
	for _, i := range v.Stale {
		if err := stores[i].ClearManifest(); err != nil && !errors.Is(err, pool.ErrReadOnly) {
			return v, fmt.Errorf("clearing stale manifest on shard %d: %w", i, err)
		}
	}
	switch v.Action {
	case BootWipe:
		for i, kv := range stores {
			if kv == nil {
				continue
			}
			if err := kv.Wipe(); err != nil {
				return v, fmt.Errorf("wiping shard %d after a crashed RESTORE: %w", i, err)
			}
			// The marker also covers a crashed replica bootstrap: an empty
			// store must not claim a stream position it no longer reflects.
			if err := kv.WriteReplCursor(0, 0); err != nil {
				return v, fmt.Errorf("zeroing replication cursor on shard %d: %w", i, err)
			}
		}
		for _, i := range v.markers {
			if err := stores[i].ClearManifest(); err != nil {
				return v, fmt.Errorf("clearing restore marker on shard %d: %w", i, err)
			}
		}
	case BootResume:
		rs, err := NewResharder(stores, int(v.Manifest.OldN), int(v.Manifest.NewN), v.Manifest.Epoch, batchBuckets, coord)
		if err == nil {
			err = rs.Attach()
		}
		v.Resharder = rs
		return v, err
	}
	if v.N == 0 && stores[0] != nil {
		if err := stores[0].WriteConfig(len(stores), 1); err != nil && !errors.Is(err, pool.ErrReadOnly) {
			return v, fmt.Errorf("committing initial cluster config: %w", err)
		}
	}
	return v, nil
}

// String says what the boot does, e.g. "resume the 1->2 reshard at
// cursor 8 (epoch 2)".
func (v BootVerdict) String() string {
	s := "fresh: the first boot commits its shard count at epoch 1"
	switch m := v.Manifest; v.Action {
	case BootCommitted:
		s = fmt.Sprintf("committed to %d shards at epoch %d", v.N, v.Epoch)
	case BootWipe:
		s = fmt.Sprintf("wipe after a crashed RESTORE (marker for epoch %d)", m.Epoch)
	case BootResume:
		s = fmt.Sprintf("resume the %d->%d reshard at cursor %d (epoch %d)", m.OldN, m.NewN, m.Cursor, m.Epoch)
	}
	if len(v.Stale) > 0 {
		s += fmt.Sprintf("; clear %d stale manifest(s)", len(v.Stale))
	}
	return s
}

// Wipe deletes every key, in bounded failure-atomic chunks: the boot
// wipe after a crashed RESTORE, and a keyspace load's clear before it
// applies a snapshot.
func (kv *KVStore) Wipe() error {
	for {
		var ops []Op
		err := kv.ScanRange(0, kv.Buckets(), func(k, _ uint64) bool {
			ops = append(ops, Op{Del: true, Key: k})
			return len(ops) < 1024
		})
		if err != nil || len(ops) == 0 {
			return err
		}
		if _, err := kv.Apply(ops); err != nil {
			return err
		}
	}
}
