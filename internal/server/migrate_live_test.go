package server_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/client"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
	"corundum/internal/workloads"
)

// waitMigration polls INFO until the background migration driver reports
// done, returning the final INFO map. It fails the test if the driver
// parks on an error instead of finishing.
func waitMigration(t *testing.T, cl *conn, timeout time.Duration) map[string]string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info := parseKV(t, mustCmd(t, cl, "INFO"))
		if err, ok := info["migration_error"]; ok {
			t.Fatalf("migration parked on error: %s", err)
		}
		if info["migration_active"] == "false" {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration still active after %v: %v", timeout, info)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runReshardLive drives a live fromN->toN migration with concurrent
// writers running through client.Retry, then verifies no acknowledged
// write was lost and no key duplicated or left behind.
func runReshardLive(t *testing.T, fromN, toN int) {
	t.Helper()
	n := fromN
	if toN > n {
		n = toN
	}
	pools := newShardPools(t, n, 16<<20)
	// Pools beyond fromN are handed to the server via ShardOpener and
	// become server-owned (its Close closes them); only the initial fromN
	// stay ours to close.
	defer closeShardPools(pools[:fromN])
	opener := func(i int) (*pool.Pool, error) { return pools[i], nil }
	srv, addr := startShardedServer(t, pools[:fromN], server.Options{
		MaxBatch: 8, Buckets: 512, MigrateBatchBuckets: 32,
		ShardOpener: opener,
	})
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.close()

	// Seed a keyspace the migration must carry over intact.
	model := map[uint64]uint64{}
	for k := uint64(0); k < 400; k++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}

	// Writers keep mutating disjoint key ranges throughout the migration.
	// Every acknowledged write must survive; -MOVED and -BUSY refusals
	// never executed, so Retry re-sends them safely.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var acked, movedSeen atomic.Int64
	var modelMu sync.Mutex
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := dial(t, addr)
			defer wc.close()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			lo := uint64(1000 * (w + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := lo + rng.Uint64()%200
				v := rng.Uint64()%1_000_000 + 1
				line, err := client.Retry(nil, 12, time.Millisecond, 50*time.Millisecond, nil,
					func() (string, error) {
						rep, err := wc.cmd(fmt.Sprintf("SET %d %d", k, v))
						if err == nil && client.IsMovedReply(rep) {
							movedSeen.Add(1)
						}
						return rep, err
					})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				switch {
				case line == "+OK":
					acked.Add(1)
					modelMu.Lock()
					model[k] = v
					modelMu.Unlock()
				case client.IsRetryableReply(line):
					// Exhausted the retry budget; the op never executed, so the
					// model keeps the last acknowledged value.
				default:
					t.Errorf("writer %d: unexpected reply %q", w, line)
					return
				}
			}
		}()
	}

	mustReply(t, cl, fmt.Sprintf("RESHARD %d", toN), "+OK")
	info := waitMigration(t, cl, 30*time.Second)
	ackedInFlight := acked.Load() // acknowledged before the migration was seen to finish
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := info["shards"]; got != fmt.Sprint(toN) {
		t.Fatalf("INFO shards = %s after migration, want %d", got, toN)
	}
	if ackedInFlight == 0 {
		t.Fatal("no writer op was acknowledged while the migration ran: RESHARD blocked serving")
	}
	// Keys whose home shard changed had to be moved: the read-back below
	// is answered by their new owner.
	rehomed := 0
	for k := range model {
		if workloads.ShardFor(k, fromN) != workloads.ShardFor(k, toN) {
			rehomed++
		}
	}
	if rehomed == 0 {
		t.Fatal("no key changed home: the migration moved nothing")
	}
	t.Logf("%d->%d: %d acked writes (%d in flight), %d -MOVED refusals, %d keys rehomed",
		fromN, toN, acked.Load(), ackedInFlight, movedSeen.Load(), rehomed)

	// Every acknowledged write reads back; the total key population is
	// exactly the model (nothing lost, duplicated, or left behind).
	for k, v := range model {
		mustReply(t, cl, fmt.Sprintf("GET %d", k), fmt.Sprintf(":%d", v))
	}
	scan := mustCmd(t, cl, "SCAN")
	if want := fmt.Sprintf("*%d", len(model)); !strings.HasPrefix(scan, want) {
		t.Fatalf("SCAN header = %q, want %s", strings.SplitN(scan, "\n", 2)[0], want)
	}
}

// TestReshardSplitLive grows 1 -> 3 shards while serving writes.
func TestReshardSplitLive(t *testing.T) { runReshardLive(t, 1, 3) }

// TestReshardMergeLive shrinks 3 -> 1 shard while serving writes.
func TestReshardMergeLive(t *testing.T) { runReshardLive(t, 3, 1) }

// TestMigrationShutdownResume is the graceful-SIGTERM satellite: Close
// mid-migration must park the driver at a batch boundary with the cursor
// durable, and a restarted server must adopt the manifests and resume the
// migration to completion without losing a key.
func TestMigrationShutdownResume(t *testing.T) {
	pools := newShardPools(t, 2, 16<<20)
	devs := []*pmem.Device{pools[0].Device(), pools[1].Device()}
	opener := func(i int) (*pool.Pool, error) { return pools[i], nil }
	srv, addr := startShardedServer(t, pools[:1], server.Options{
		MaxBatch: 8, Buckets: 256, MigrateBatchBuckets: 8,
		MigrationThrottle: 10 * time.Millisecond,
		ShardOpener:       opener,
	})
	cl := dial(t, addr)

	model := map[uint64]uint64{}
	for k := uint64(0); k < 300; k++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}

	mustReply(t, cl, "RESHARD 2", "+OK")
	time.Sleep(60 * time.Millisecond) // let a few throttled batches land
	cl.close()
	srv.Close() // graceful: driver parks at a batch boundary
	pools[0].Close()

	// The pools must witness a mid-flight migration: manifests present,
	// config still committed to the old layout.
	p0, err := pool.Attach(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	p1, err := pool.Attach(devs[1])
	if err != nil {
		t.Fatal(err)
	}
	kv0, err := workloads.AttachKVStore(corundumeng.Wrap(p0))
	if err != nil {
		t.Fatal(err)
	}
	cfgShards, _, err := kv0.ReadConfig()
	if err != nil {
		t.Fatal(err)
	}
	m, err := kv0.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if cfgShards != 1 || m == nil {
		t.Fatalf("expected a parked mid-flight migration (config says %d shards, manifest %v)", cfgShards, m)
	}
	t.Logf("parked at cursor %d/%d", m.Cursor, kv0.Buckets())

	// Restart: the server adopts the manifests and finishes the job.
	srv2, addr2 := startShardedServer(t, []*pool.Pool{p0, p1}, server.Options{
		MaxBatch: 8, Buckets: 256, MigrateBatchBuckets: 8,
	})
	defer srv2.Close()
	defer p0.Close()
	defer p1.Close()
	cl2 := dial(t, addr2)
	defer cl2.close()
	info := waitMigration(t, cl2, 30*time.Second)
	if got := info["shards"]; got != "2" {
		t.Fatalf("INFO shards = %s after resume, want 2", got)
	}
	for k, v := range model {
		mustReply(t, cl2, fmt.Sprintf("GET %d", k), fmt.Sprintf(":%d", v))
	}
	scan := mustCmd(t, cl2, "SCAN")
	if want := fmt.Sprintf("*%d", len(model)); !strings.HasPrefix(scan, want) {
		t.Fatalf("SCAN header = %q, want %s", strings.SplitN(scan, "\n", 2)[0], want)
	}
}

// TestMigrationCrashResume power-cuts the source device mid-migration:
// the driver's injected-crash panic halts the server, and a reboot from
// the durable images must adopt the manifests, resume the migration, and
// end with every key exactly once.
func TestMigrationCrashResume(t *testing.T) {
	pools := newShardPools(t, 2, 16<<20)
	devs := []*pmem.Device{pools[0].Device(), pools[1].Device()}
	opener := func(i int) (*pool.Pool, error) { return pools[i], nil }
	srv, addr := startShardedServer(t, pools[:1], server.Options{
		MaxBatch: 8, Buckets: 256, MigrateBatchBuckets: 8,
		MigrationThrottle: 5 * time.Millisecond,
		ShardOpener:       opener,
	})
	cl := dial(t, addr)

	model := map[uint64]uint64{}
	for k := uint64(0); k < 300; k++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}

	// Arm the cut after RESHARD replies: the manifests are durable by
	// then, and with only the driver writing this device the cut lands
	// inside a migration transaction.
	mustReply(t, cl, "RESHARD 2", "+OK")
	devs[0].CrashAt(devs[0].OpCount() + 300)

	deadline := time.Now().Add(15 * time.Second)
	for !srv.Halted() {
		if time.Now().After(deadline) {
			t.Fatal("injected crash never halted the server")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := srv.MigrationError(); err == nil {
		t.Fatal("halted server reports no migration error")
	} else {
		t.Logf("halt reason: %v", err)
	}
	cl.close()
	srv.Close()

	// Reboot from the durable images, running journal recovery.
	devs[0].Crash()
	ps, errs := server.AttachShards(devs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reattaching shard %d: %v", i, err)
		}
	}
	kv0, err := workloads.AttachKVStore(corundumeng.Wrap(ps[0]))
	if err != nil {
		t.Fatal(err)
	}
	if m, err := kv0.ReadManifest(); err != nil || m == nil {
		t.Fatalf("expected an interrupted migration manifest after the cut (m=%v err=%v)", m, err)
	}

	srv2, addr2 := startShardedServer(t, ps, server.Options{
		MaxBatch: 8, Buckets: 256, MigrateBatchBuckets: 8,
	})
	defer srv2.Close()
	defer closeShardPools(ps)
	cl2 := dial(t, addr2)
	defer cl2.close()
	info := waitMigration(t, cl2, 30*time.Second)
	if got := info["shards"]; got != "2" {
		t.Fatalf("INFO shards = %s after crash resume, want 2", got)
	}
	for k, v := range model {
		mustReply(t, cl2, fmt.Sprintf("GET %d", k), fmt.Sprintf(":%d", v))
	}
	scan := mustCmd(t, cl2, "SCAN")
	if want := fmt.Sprintf("*%d", len(model)); !strings.HasPrefix(scan, want) {
		t.Fatalf("SCAN header = %q, want %s", strings.SplitN(scan, "\n", 2)[0], want)
	}
}

// TestMigrationCutUnderTrafficCloses power-cuts the source device of a
// live migration while clients keep reading and writing the moving
// keys. Wherever the cut lands — inside a migration section (manifest
// write, target apply, handover) or a batch commit — that section must
// end: the shard fails, its lock is released, and the server halts. A
// section that kept its lock would park every later GET fallback and
// commit on that shard for good, and Close, which waits for them, would
// never return.
func TestMigrationCutUnderTrafficCloses(t *testing.T) {
	pools := newShardPools(t, 2, 16<<20)
	dev0 := pools[0].Device()
	srv, addr := startShardedServer(t, pools[:1], server.Options{
		MaxBatch: 8, Buckets: 256, MigrateBatchBuckets: 8,
		MigrationThrottle: time.Millisecond,
		ShardOpener:       func(i int) (*pool.Pool, error) { return pools[i], nil },
	})
	cl := dial(t, addr)
	const keys = 300
	for k := uint64(0); k < keys; k++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
	}
	mustReply(t, cl, "RESHARD 2", "+OK")
	cl.close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := client.NewSession(addr, 2*time.Second)
			defer s.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(c*97+i) % keys
				var err error
				if i%8 == 0 {
					err = s.Set(k, valFor(k))
				} else {
					_, _, err = s.Get(k)
				}
				if err != nil {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	// Each fence on the source takes a millisecond from here on, so the
	// sections the cut can land in are long enough for GETs and commits
	// to queue on the shard's lock behind them.
	dev0.SetFaultInjector(func(op pmem.Op) bool {
		if op == pmem.OpFence {
			time.Sleep(time.Millisecond)
		}
		return false
	})
	dev0.CrashAt(dev0.OpCount() + 300)

	deadline := time.Now().Add(15 * time.Second)
	for !srv.Halted() {
		if time.Now().After(deadline) {
			close(stop)
			t.Fatal("injected crash never halted the server")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close still blocked 10s after the cut: a lock section on the cut shard never ended")
	}
	wg.Wait()
	if err := srv.MigrationError(); err == nil {
		t.Error("halted server reports no migration error")
	} else {
		t.Logf("halt reason: %v", err)
	}
}

// TestMovedReplyHelpers pins the client-side -MOVED parsing helpers.
func TestMovedReplyHelpers(t *testing.T) {
	cases := []struct {
		line  string
		moved bool
		shard int
	}{
		{"-MOVED 3 moved to shard 3", true, 3},
		{"-MOVED 0", true, 0},
		{"-MOVED", true, -1},
		{"-MOVED x", true, -1},
		{"-MOVED 99999999999", true, -1},
		{"-BUSY journal slots exhausted", false, -1},
		{"+OK", false, -1},
	}
	for _, c := range cases {
		if got := client.IsMovedReply(c.line); got != c.moved {
			t.Errorf("IsMovedReply(%q) = %v, want %v", c.line, got, c.moved)
		}
		if got := client.MovedShard(c.line); got != c.shard {
			t.Errorf("MovedShard(%q) = %d, want %d", c.line, got, c.shard)
		}
	}
	if !client.IsRetryableReply("-MOVED 1 x") || !client.IsRetryableReply("-BUSY x") {
		t.Error("IsRetryableReply must accept -MOVED and -BUSY")
	}
	if client.IsRetryableReply("-READONLY pool degraded") {
		t.Error("IsRetryableReply must not retry -READONLY")
	}
	if !client.IsReadonlyReply("-READONLY pool degraded") {
		t.Error("IsReadonlyReply(-READONLY ...) = false")
	}
}

// TestRetryTransientBackoff verifies Retry with a nil predicate re-sends
// -MOVED (and only transient) replies with bounded attempts.
func TestRetryTransientBackoff(t *testing.T) {
	replies := []string{"-MOVED 2 moved", "-BUSY full", "+OK"}
	i := 0
	line, err := client.Retry(nil, 5, time.Microsecond, time.Millisecond, nil,
		func() (string, error) { r := replies[i]; i++; return r, nil })
	if err != nil || line != "+OK" {
		t.Fatalf("Retry = (%q, %v), want (+OK, nil)", line, err)
	}
	if i != 3 {
		t.Fatalf("do ran %d times, want 3", i)
	}

	// A terminal reply returns immediately, no retries.
	i = 0
	line, err = client.Retry(nil, 5, time.Microsecond, time.Millisecond, nil,
		func() (string, error) { i++; return "-READONLY degraded", nil })
	if err != nil || !client.IsReadonlyReply(line) || i != 1 {
		t.Fatalf("Retry on -READONLY = (%q, %v) after %d tries", line, err, i)
	}
}
