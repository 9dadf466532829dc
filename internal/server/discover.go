package server

import (
	"fmt"
	"os"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// Boot: after an online RESHARD, the number of pools a deployment is
// committed to lives in the pools themselves (the cluster config on
// shard 0), not in whatever -shards the operator passes on the next
// start. Boot opens shard 0's pool once — recovery runs inside that
// open — reads the committed layout from it, and opens the other shards
// of that layout. Each pool is opened once and nothing is written back
// to a file: a pool file changes only when its pool closes.

// Layout is the deployment Boot opened.
type Layout struct {
	// Paths holds one pool file per shard, in shard order. Shard 0 keeps
	// whichever file it actually lives in: the bare base path (the
	// single-shard and pre-reshard naming) or "<base>.0" (the -shards N
	// naming); grown shards are always "<base>.<i>".
	Paths []string
	// Pools holds each shard's open pool, in shard order; nil where the
	// shard failed to open or recover, and Errs says why. Shard 0 is never
	// nil: without it there is no layout to read, and Boot fails instead.
	// The caller owns the pools.
	Pools []*pool.Pool
	Errs  []error
	// N is the shard count to serve: the committed config's count, raised
	// to max(OldN, NewN) when an interrupted migration needs its target
	// pools opened to resume (workloads.DecideBoot's N).
	N int
	// CfgShards and Epoch echo the committed cluster config (CfgShards 0:
	// pool 0 exists but holds no config yet).
	CfgShards int
	Epoch     uint64
	// Resume is the interrupted reshard's manifest when one was found
	// ahead of the config epoch; the server will adopt and resume it.
	Resume *workloads.Manifest
	// Restore is a crashed RESTORE's marker; the server will wipe the keyspace.
	Restore *workloads.Manifest
	// Stale lists shard files that exist on disk beyond the committed
	// layout — leftovers of a merge that are no longer part of the
	// keyspace. They are not opened; the operator decides their fate.
	Stale []string
	// FromFlag reports that N came from the -shards flag because nothing
	// on disk had an opinion (a fresh deployment).
	FromFlag bool
}

// shardFile names shard i's pool file under base. Shard 0 may instead
// live in the bare base file; Boot resolves which.
func shardFile(base string, i int) string { return fmt.Sprintf("%s.%d", base, i) }

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// Boot opens the deployment under base: shard 0's pool first, from the
// bare base file if it exists, else "<base>.0" (created there on a fresh
// deployment: the bare base for one shard, "<base>.0" for more); then
// the committed layout read from it (workloads.DecideBoot, with flagN —
// the -shards value — deciding only when pool 0 holds no config); then
// shards 1..N-1 concurrently, through the open-or-create FileShardOpener
// gives RESHARD. Existing files open through pool.OpenRepair: a cleanly
// recoverable image opens as usual, a media-damaged one is repaired
// where mirrors and checksums allow and otherwise opens degraded. Shards
// after 0 fail alone (nil pool, error in Errs); a failure on shard 0 or
// in reading its layout fails Boot. Attaching shard 0's store upgrades
// an old store directory in place, the one-transaction upgrade any
// writable attach makes. No pool is closed or synced here.
func Boot(base string, flagN int, cfg pool.Config) (Layout, error) {
	if flagN < 1 {
		return Layout{}, fmt.Errorf("boot: -shards %d: need at least one", flagN)
	}
	path0 := base
	if !exists(base) && (flagN > 1 || exists(shardFile(base, 0))) {
		path0 = shardFile(base, 0)
	}
	p0, err := openShard(0, func(int) (*pool.Pool, error) { return openOrCreate(path0, cfg) })
	if err != nil {
		return Layout{}, fmt.Errorf("boot: opening %s: %w", path0, err)
	}

	lay := Layout{N: flagN, FromFlag: true}
	if p0.RootOff() != 0 {
		kv, err := workloads.AttachKVStore(corundumeng.Wrap(p0))
		if err != nil {
			return Layout{}, fmt.Errorf("boot: attaching store on shard 0 (%s): %w", path0, err)
		}
		v, err := workloads.DecideBoot([]*workloads.KVStore{kv})
		if err != nil {
			return Layout{}, fmt.Errorf("boot: shard 0 (%s): %w", path0, err)
		}
		lay.CfgShards, lay.Epoch = v.CfgShards, v.Epoch
		if v.N > 0 {
			lay.N, lay.FromFlag = v.N, false
		}
		switch v.Action {
		case workloads.BootResume:
			lay.Resume = v.Manifest
		case workloads.BootWipe:
			lay.Restore = v.Manifest
		}
	}

	lay.Paths = make([]string, lay.N)
	lay.Paths[0] = path0
	for i := 1; i < lay.N; i++ {
		lay.Paths[i] = shardFile(base, i)
	}
	// Shard files beyond the layout are merge leftovers (or an operator
	// mixup); surface them rather than silently serving around them.
	for i := lay.N; exists(shardFile(base, i)); i++ {
		lay.Stale = append(lay.Stale, shardFile(base, i))
	}
	open := FileShardOpener(base, cfg)
	lay.Pools, lay.Errs = openShards(lay.N, func(i int) (*pool.Pool, error) {
		if i == 0 {
			return p0, nil
		}
		return open(i)
	})
	return lay, nil
}

// FileShardOpener returns the ShardOpener corundum-server installs, and
// the open Boot uses for shards after 0: shard i's pool is opened from
// "<base>.<i>" if that file exists (a rejoining retiree, or a shard of
// the committed layout) and created there otherwise.
func FileShardOpener(base string, cfg pool.Config) func(int) (*pool.Pool, error) {
	return func(i int) (*pool.Pool, error) { return openOrCreate(shardFile(base, i), cfg) }
}

// openOrCreate opens (recovering and repairing) the pool at path, or
// formats a new one there with cfg when no file exists.
func openOrCreate(path string, cfg pool.Config) (*pool.Pool, error) {
	if exists(path) {
		return pool.OpenRepair(path, cfg.Mem)
	}
	return pool.Create(path, cfg)
}
