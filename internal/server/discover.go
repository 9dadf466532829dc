package server

import (
	"fmt"
	"os"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// Boot discovery: after an online RESHARD, the number of pools a
// deployment is committed to lives in the pools themselves (the cluster
// config on shard 0), not in whatever -shards the operator passes on the
// next start. DiscoverLayout reads that durable commitment — plus any
// interrupted migration's manifest — and derives the exact set of pool
// files to open, so a restart always opens the layout the data lives in.

// Layout is what DiscoverLayout found on disk.
type Layout struct {
	// Paths holds one pool file per shard, in shard order. Shard 0 keeps
	// whichever file it actually lives in: the bare base path (the
	// single-shard and pre-reshard naming) or "<base>.0" (the -shards N
	// naming); grown shards are always "<base>.<i>".
	Paths []string
	// N is the shard count to serve: the committed config's count, raised
	// to max(OldN, NewN) when an interrupted migration needs its target
	// pools opened to resume.
	N int
	// CfgShards and Epoch echo the committed cluster config (CfgShards 0:
	// pool 0 exists but holds no config yet).
	CfgShards int
	Epoch     uint64
	// Resume is the interrupted migration's manifest when one was found
	// ahead of the config epoch; the server will adopt and resume it.
	Resume *workloads.Manifest
	// Stale lists shard files that exist on disk beyond the committed
	// layout — leftovers of a merge that are no longer part of the
	// keyspace. They are not opened; the operator decides their fate.
	Stale []string
	// FromFlag reports that N came from the -shards flag because nothing
	// on disk had an opinion (a fresh deployment).
	FromFlag bool
}

// shard0Path resolves where shard 0's pool lives: the bare base file if
// it exists, else "<base>.0", else "" (fresh deployment).
func shard0Path(base string) string {
	if _, err := os.Stat(base); err == nil {
		return base
	}
	p0 := fmt.Sprintf("%s.0", base)
	if _, err := os.Stat(p0); err == nil {
		return p0
	}
	return ""
}

// DiscoverLayout inspects shard 0's pool (briefly opening it, with
// recovery and repair) and returns the layout to serve. flagN is the
// -shards value, used only when the disk holds no committed config.
// Discovery is read-only with respect to the keyspace; the open runs
// crash recovery exactly as the real open will, so the subsequent
// OpenShards sees a clean image. Attaching shard 0's store upgrades a v1
// store directory to v2, the one-transaction upgrade any writable attach
// makes.
func DiscoverLayout(base string, flagN int, mem pmem.Options) (Layout, error) {
	if flagN < 1 {
		return Layout{}, fmt.Errorf("discover: -shards %d: need at least one", flagN)
	}
	path0 := shard0Path(base)
	if path0 == "" {
		return Layout{Paths: ShardPaths(base, flagN), N: flagN, FromFlag: true}, nil
	}

	p, err := pool.OpenRepair(path0, mem)
	if err != nil {
		return Layout{}, fmt.Errorf("discover: opening shard 0 (%s): %w", path0, err)
	}
	defer p.Close()

	lay := Layout{N: flagN, FromFlag: true}
	if p.RootOff() != 0 {
		kv, err := workloads.AttachKVStore(corundumeng.Wrap(p))
		if err != nil {
			return Layout{}, fmt.Errorf("discover: attaching store on shard 0 (%s): %w", path0, err)
		}
		cfgShards, cfgEpoch, err := kv.ReadConfig()
		if err != nil {
			return Layout{}, fmt.Errorf("discover: cluster config on shard 0 (%s): %w", path0, err)
		}
		m, err := kv.ReadManifest()
		if err != nil {
			return Layout{}, fmt.Errorf("discover: migration manifest on shard 0 (%s): %w", path0, err)
		}
		lay.CfgShards, lay.Epoch = cfgShards, cfgEpoch
		if cfgShards > 0 {
			lay.N, lay.FromFlag = cfgShards, false
		}
		if m != nil && m.Epoch > cfgEpoch {
			// Interrupted mid-migration: both the source and target layouts'
			// pools must open so the resume can finish moving keys.
			lay.Resume = m
			lay.N = max(int(m.OldN), int(m.NewN))
			lay.FromFlag = false
		}
	}

	lay.Paths = make([]string, lay.N)
	lay.Paths[0] = path0
	for i := 1; i < lay.N; i++ {
		lay.Paths[i] = fmt.Sprintf("%s.%d", base, i)
	}
	// Shard files beyond the layout are merge leftovers (or an operator
	// mixup); surface them rather than silently serving around them.
	for i := lay.N; ; i++ {
		leftover := fmt.Sprintf("%s.%d", base, i)
		if _, err := os.Stat(leftover); err != nil {
			break
		}
		lay.Stale = append(lay.Stale, leftover)
	}
	return lay, nil
}

// FileShardOpener returns the ShardOpener corundum-server installs: when
// a RESHARD grows the cluster past the pools it booted with, shard i's
// pool is opened from "<base>.<i>" if that file exists (a rejoining
// retiree) and created there otherwise.
func FileShardOpener(base string, cfg pool.Config) func(int) (*pool.Pool, error) {
	return func(i int) (*pool.Pool, error) {
		path := fmt.Sprintf("%s.%d", base, i)
		if _, err := os.Stat(path); err == nil {
			return pool.OpenRepair(path, cfg.Mem)
		}
		return pool.Create(path, cfg)
	}
}
