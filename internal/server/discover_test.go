package server_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
)

// migrationWait bounds how long tests poll INFO for a migration to
// finish; generous because CI machines stall.
const migrationWait = 30 * time.Second

// boot opens the deployment under base with the corundum-server startup
// path (server.Boot) and fails the test unless every shard opened.
func boot(t *testing.T, base string, flagN int, cfg pool.Config) server.Layout {
	t.Helper()
	lay, err := server.Boot(base, flagN, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range lay.Pools {
		if p == nil {
			t.Fatalf("shard %d (%s) failed to open: %v", i, lay.Paths[i], lay.Errs[i])
		}
	}
	return lay
}

// fileOpts are the server options the lifecycle tests serve a booted
// layout with: small batches and a file-backed opener, as
// corundum-server installs.
func fileOpts(base string, cfg pool.Config) server.Options {
	return server.Options{
		MaxBatch: 8, Buckets: 256, MigrateBatchBuckets: 32,
		ShardOpener: server.FileShardOpener(base, cfg),
	}
}

// TestDiscoverLayoutLifecycle walks a deployment through its layout
// transitions on real pool files: fresh single-file boot, online grow to
// 3 shards, a restart whose stale -shards flag must lose to the
// committed config, and an online merge back to 1 that leaves the grown
// files behind as flagged leftovers.
func TestDiscoverLayoutLifecycle(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "kv.pool")
	cfg := pool.Config{Size: 16 << 20, Journals: 8, Mem: pmem.Options{}}

	// Boot 1: nothing on disk — the flag decides, the bare base is used.
	lay := boot(t, base, 1, cfg)
	srv, addr := startShardedServer(t, lay.Pools, fileOpts(base, cfg))
	if !lay.FromFlag || lay.N != 1 || lay.Paths[0] != base {
		t.Fatalf("fresh layout = %+v, want 1 shard at %s from flag", lay, base)
	}
	cl := dial(t, addr)
	model := map[uint64]uint64{}
	for k := uint64(0); k < 300; k++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	mustReply(t, cl, "RESHARD 3", "+OK")
	waitMigration(t, cl, migrationWait)
	cl.close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	closeShardPools(lay.Pools) // grown pools are server-owned and already closed

	// The grow must have materialized real files.
	for _, p := range []string{base, base + ".1", base + ".2"} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("expected shard file %s after RESHARD 3: %v", p, err)
		}
	}

	// Boot 2: the operator passes a stale -shards 1; the committed config
	// must win and all 300 keys must be there across the 3 shards.
	lay2 := boot(t, base, 1, cfg)
	srv2, addr2 := startShardedServer(t, lay2.Pools, fileOpts(base, cfg))
	if lay2.FromFlag || lay2.N != 3 || lay2.CfgShards != 3 {
		t.Fatalf("post-grow layout = %+v, want 3 committed shards", lay2)
	}
	if lay2.Paths[0] != base || lay2.Paths[2] != base+".2" {
		t.Fatalf("post-grow paths = %v", lay2.Paths)
	}
	if len(lay2.Stale) != 0 {
		t.Fatalf("post-grow stale files = %v, want none", lay2.Stale)
	}
	cl2 := dial(t, addr2)
	info := parseKV(t, mustCmd(t, cl2, "INFO"))
	if info["shards"] != "3" {
		t.Fatalf("INFO shards = %q, want 3", info["shards"])
	}
	for k, v := range model {
		mustReply(t, cl2, fmt.Sprintf("GET %d", k), fmt.Sprintf(":%d", v))
	}

	// Merge back online, then shut down.
	mustReply(t, cl2, "RESHARD 1", "+OK")
	waitMigration(t, cl2, migrationWait)
	cl2.close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	closeShardPools(lay2.Pools)

	// Boot 3: config says 1 shard; the .1/.2 files still exist on disk and
	// must be reported stale, not opened.
	lay3 := boot(t, base, 4, cfg)
	srv3, addr3 := startShardedServer(t, lay3.Pools, fileOpts(base, cfg))
	if lay3.N != 1 || lay3.CfgShards != 1 {
		t.Fatalf("post-merge layout = %+v, want 1 committed shard", lay3)
	}
	if len(lay3.Stale) != 2 || lay3.Stale[0] != base+".1" || lay3.Stale[1] != base+".2" {
		t.Fatalf("post-merge stale files = %v, want [.1 .2]", lay3.Stale)
	}
	cl3 := dial(t, addr3)
	defer cl3.close()
	defer closeShardPools(lay3.Pools)
	defer srv3.Close()
	if info := parseKV(t, mustCmd(t, cl3, "INFO")); info["shards"] != "1" {
		t.Fatalf("INFO shards = %q, want 1", info["shards"])
	}
	got := scanToMap(t, mustCmd(t, cl3, "SCAN"))
	if len(got) != len(model) {
		t.Fatalf("post-merge walk holds %d keys, want %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("post-merge key %d = %d, want %d", k, got[k], v)
		}
	}
}

// TestDiscoverLayoutResume interrupts a file-backed migration with
// SIGTERM-style shutdown and verifies the next boot reports the parked
// manifest, opens the target pools, and completes the migration.
func TestDiscoverLayoutResume(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "kv.pool")
	cfg := pool.Config{Size: 16 << 20, Journals: 8, Mem: pmem.Options{}}

	lay := boot(t, base, 1, cfg)
	srv, addr := startShardedServer(t, lay.Pools, fileOpts(base, cfg))
	cl := dial(t, addr)
	model := map[uint64]uint64{}
	for k := uint64(0); k < 300; k++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	cl.close()
	srv.Close()
	closeShardPools(lay.Pools)

	// Slow the migration down so Close parks it mid-flight.
	lay1 := boot(t, base, 1, cfg)
	opts := fileOpts(base, cfg)
	opts.MigrateBatchBuckets = 8
	opts.MigrationThrottle = 10 * time.Millisecond
	srv1, addr1 := startShardedServer(t, lay1.Pools, opts)
	cl1 := dial(t, addr1)
	mustReply(t, cl1, "RESHARD 2", "+OK")
	time.Sleep(40 * time.Millisecond)
	cl1.close()
	if err := srv1.Close(); err != nil { // drains and checkpoints the cursor
		t.Fatal(err)
	}
	closeShardPools(lay1.Pools)

	lay2 := boot(t, base, 1, cfg)
	defer closeShardPools(lay2.Pools)
	if lay2.Resume == nil {
		t.Skip("migration completed before shutdown; nothing to resume")
	}
	if lay2.N != 2 || len(lay2.Pools) != 2 || lay2.Resume.OldN != 1 || lay2.Resume.NewN != 2 {
		t.Fatalf("parked layout = %+v (resume %+v), want 1->2 over 2 pools", lay2, lay2.Resume)
	}
	srv2, addr2 := startShardedServer(t, lay2.Pools, fileOpts(base, cfg))
	defer srv2.Close()
	cl2 := dial(t, addr2)
	defer cl2.close()
	waitMigration(t, cl2, migrationWait)
	if info := parseKV(t, mustCmd(t, cl2, "INFO")); info["shards"] != "2" {
		t.Fatalf("INFO shards = %q, want 2 after resumed migration", info["shards"])
	}
	got := scanToMap(t, mustCmd(t, cl2, "SCAN"))
	if len(got) != len(model) {
		t.Fatalf("resumed walk holds %d keys, want %d", len(got), len(model))
	}
}
