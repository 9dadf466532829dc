package server_test

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/client"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
	"corundum/internal/workloads"
)

// shardCount reads the CI shard-matrix override, defaulting to 4 so the
// sharded paths are exercised even without the matrix.
func shardCount(t *testing.T) int {
	t.Helper()
	v := os.Getenv("CORUNDUM_TEST_SHARDS")
	if v == "" {
		return 4
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("CORUNDUM_TEST_SHARDS=%q is not a positive integer", v)
	}
	return n
}

// newShardPools creates n independent in-memory shard pools.
func newShardPools(t *testing.T, n int, size int) []*pool.Pool {
	t.Helper()
	pools := make([]*pool.Pool, n)
	for i := range pools {
		p, err := pool.Create("", pool.Config{
			Size: size, Journals: 8,
			Mem: pmem.Options{TrackCrash: true, FlightRecorder: 256},
		})
		if err != nil {
			t.Fatal(err)
		}
		pools[i] = p
	}
	return pools
}

func closeShardPools(pools []*pool.Pool) {
	for _, p := range pools {
		if p != nil {
			p.Close()
		}
	}
}

func startShardedServer(t *testing.T, pools []*pool.Pool, opts server.Options) (*server.Server, string) {
	t.Helper()
	srv, err := server.NewSharded(pools, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// keyOnShard finds a key ≥ seed routed to the given shard.
func keyOnShard(shard, n int, seed uint64) uint64 {
	for k := seed; ; k++ {
		if workloads.ShardFor(k, n) == shard {
			return k
		}
	}
}

// TestShardedServerBasic routes traffic across a sharded server and
// verifies the protocol behaves exactly as with one pool: writes land on
// their hash-owned shard, reads and scans see all of them, and the load
// genuinely spread over more than one shard.
func TestShardedServerBasic(t *testing.T) {
	n := shardCount(t)
	pools := newShardPools(t, n, 16<<20)
	defer closeShardPools(pools)
	srv, addr := startShardedServer(t, pools, server.Options{MaxBatch: 8, Buckets: 64})
	defer srv.Close()

	cl := dial(t, addr)
	defer cl.close()

	const keys = 128
	for i := uint64(0); i < keys; i++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", i, valFor(i)), "+OK")
	}
	for i := uint64(0); i < keys; i++ {
		mustReply(t, cl, fmt.Sprintf("GET %d", i), fmt.Sprintf(":%d", valFor(i)))
	}
	scan, err := cl.cmd("SCAN")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(scan, fmt.Sprintf("*%d", keys)) {
		t.Fatalf("SCAN header = %q, want *%d", strings.SplitN(scan, "\n", 2)[0], keys)
	}
	mustReply(t, cl, "DEL 0", ":1")
	mustReply(t, cl, "DEL 0", ":0")
	mustReply(t, cl, "GET 0", "$-1")

	if n > 1 {
		// The keyspace must actually be partitioned: more than one shard
		// committed mutations.
		stats := parseKV(t, mustCmd(t, cl, "STATS"))
		busy := 0
		for i := 0; i < n; i++ {
			ops, _ := strconv.ParseUint(stats[fmt.Sprintf("shard%d_batched_ops", i)], 10, 64)
			if ops > 0 {
				busy++
			}
		}
		if busy < 2 {
			t.Errorf("only %d of %d shards committed ops; hash routing is not partitioning", busy, n)
		}
	}
}

func mustCmd(t *testing.T, cl *conn, cmd string) string {
	t.Helper()
	out, err := cl.cmd(cmd)
	if err != nil {
		t.Fatalf("%s: %v", cmd, err)
	}
	return out
}

// TestStatsInfoRoundTripSharded extends the key-set contract to sharded
// mode: the aggregate keys keep their names and the per-shard breakdown
// keys sum to the aggregates where they are additive.
func TestStatsInfoRoundTripSharded(t *testing.T) {
	const n = 4
	pools := newShardPools(t, n, 16<<20)
	defer closeShardPools(pools)
	srv, addr := startShardedServer(t, pools, server.Options{MaxBatch: 8, Buckets: 64})
	defer srv.Close()

	cl := dial(t, addr)
	defer cl.close()
	for i := uint64(0); i < 64; i++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", i, i+1), "+OK")
	}

	stats := parseKV(t, mustCmd(t, cl, "STATS"))
	if stats["shards"] != strconv.Itoa(n) {
		t.Errorf("STATS shards = %q, want %d", stats["shards"], n)
	}
	sum := func(keyFmt, aggregate string) {
		t.Helper()
		var total uint64
		for i := 0; i < n; i++ {
			k := fmt.Sprintf(keyFmt, i)
			v, ok := stats[k]
			if !ok {
				t.Errorf("STATS missing per-shard key %q", k)
				return
			}
			u, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Errorf("STATS %s = %q is not an integer", k, v)
				return
			}
			total += u
		}
		agg, _ := strconv.ParseUint(stats[aggregate], 10, 64)
		if total != agg {
			t.Errorf("per-shard %s sum to %d, want %s = %d", keyFmt, total, aggregate, agg)
		}
	}
	sum("shard%d_batches_committed", "batches_committed")
	sum("shard%d_batched_ops", "batched_ops")
	sum("shard%d_pmem_fences", "pmem_fences")
	// Store shape: 64 keys spread over four 64-bucket base directories,
	// none of which has outgrown its base.
	sum("shard%d_store_keys", "store_keys")
	sum("shard%d_store_buckets", "store_buckets")
	if stats["store_keys"] != "64" || stats["store_buckets"] != strconv.Itoa(64*n) {
		t.Errorf("STATS store_keys = %s, store_buckets = %s; want 64, %d", stats["store_keys"], stats["store_buckets"], 64*n)
	}

	info := parseKV(t, mustCmd(t, cl, "INFO"))
	if info["shards"] != strconv.Itoa(n) {
		t.Errorf("INFO shards = %q, want %d", info["shards"], n)
	}
	if info["shards_down"] != "0" {
		t.Errorf("INFO shards_down = %q, want 0", info["shards_down"])
	}
	// journals aggregates across shards; each per-shard generation is live.
	if want := strconv.Itoa(8 * n); info["journals"] != want {
		t.Errorf("INFO journals = %q, want %s", info["journals"], want)
	}
	for i := 0; i < n; i++ {
		for _, k := range []string{
			fmt.Sprintf("shard%d_generation", i),
			fmt.Sprintf("shard%d_root_offset", i),
			fmt.Sprintf("shard%d_degraded", i),
			fmt.Sprintf("shard%d_store_keys", i),
			fmt.Sprintf("shard%d_store_buckets", i),
		} {
			if _, ok := info[k]; !ok {
				t.Errorf("INFO missing per-shard key %q", k)
			}
		}
	}

	// The sharded registry carries shard-labeled pool series and per-shard
	// health gauges alongside the aggregate server series.
	var sb strings.Builder
	if err := srv.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`pmem_fences_total{scope="journal",shard="0"}`,
		`pmem_fences_total{scope="journal",shard="3"}`,
		`server_shard_degraded{shard="0"} 0`,
		`server_shard_down{shard="2"} 0`,
		`server_store_buckets{shard="1"} 64`,
		"server_shards 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("sharded /metrics missing %q", want)
		}
	}
}

// TestShardedCrashRecovery is the crash-consistency contract under
// sharding: concurrent clients stream SETs across every shard, power is
// cut on two shards' devices mid-group-commit, the survivors keep
// serving, and after a machine-wide power cut every shard recovers in
// parallel with per-shard ack-survival and no torn values anywhere.
func TestShardedCrashRecovery(t *testing.T) {
	n := shardCount(t)
	pools := newShardPools(t, n, 32<<20)
	srv, addr := startShardedServer(t, pools, server.Options{MaxBatch: 16})

	// Arm injectors on up to two shards after the stores exist, so the
	// crashes land mid-load, not mid-format.
	armed := []int{0}
	if n >= 2 {
		armed = []int{0, 1}
	}
	rng := rand.New(rand.NewSource(7))
	for _, si := range armed {
		dev := pools[si].Device()
		crashAt := uint64(1500 + rng.Intn(4000))
		var opCount atomic.Uint64
		dev.SetFaultInjector(func(op pmem.Op) bool {
			return opCount.Add(1) == crashAt
		})
	}

	const clients, perClient = 8, 400
	type ack struct {
		key   uint64
		acked bool
	}
	sent := make([][]ack, clients)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := client.Dial(addr, 0)
			if err != nil {
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				key := uint64(id+1)<<40 | uint64(i)
				sent[id] = append(sent[id], ack{key: key})
				rep, err := cl.Do(fmt.Sprintf("SET %d %d", key, valFor(key)))
				if err != nil {
					return
				}
				if rep.Head == "+OK" {
					sent[id][len(sent[id])-1].acked = true
				}
			}
		}(id)
	}
	wg.Wait()
	for _, si := range armed {
		pools[si].Device().SetFaultInjector(nil)
	}

	if n == 1 {
		if !srv.Halted() {
			t.Fatal("single-shard server did not halt on its only shard's crash")
		}
	} else {
		for _, si := range armed {
			if srv.ShardDown(si) == nil {
				t.Fatalf("shard %d not fenced after its device crashed", si)
			}
		}
		if srv.Halted() && len(armed) < n {
			t.Fatal("server halted although live shards remain")
		}
	}
	var probeKeys []uint64
	if n > 1 && len(armed) < n {
		// Survivor shards answer reads AND writes while siblings are dead.
		live := -1
		for i := 0; i < n; i++ {
			if srv.ShardDown(i) == nil {
				live = i
				break
			}
		}
		if live < 0 {
			t.Fatal("no live shard left")
		}
		cl := dial(t, addr)
		k := keyOnShard(live, n, 1<<60)
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		mustReply(t, cl, fmt.Sprintf("GET %d", k), fmt.Sprintf(":%d", valFor(k)))
		probeKeys = append(probeKeys, k)
		// A dead shard's slice answers -READONLY, not silence.
		dk := keyOnShard(armed[0], n, 1<<61)
		if reply := mustCmd(t, cl, fmt.Sprintf("SET %d %d", dk, valFor(dk))); !strings.HasPrefix(reply, "-READONLY") && !strings.HasPrefix(reply, "-ERR") {
			t.Fatalf("SET on dead shard = %q, want -READONLY/-ERR", reply)
		}
		probeKeys = append(probeKeys, dk)
		cl.close()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	var ackedTotal, sentTotal int
	for id := range sent {
		sentTotal += len(sent[id])
		for _, a := range sent[id] {
			if a.acked {
				ackedTotal++
			}
		}
	}
	if ackedTotal == 0 {
		t.Fatalf("no SET acknowledged before the crashes (sent %d)", sentTotal)
	}
	t.Logf("shards=%d armed=%v: %d sent, %d acked", n, armed, sentTotal, ackedTotal)

	// Machine-wide power cut and reboot: every device reverts to durable
	// state, then all shards recover concurrently.
	devs := make([]*pmem.Device, n)
	for i, p := range pools {
		devs[i] = p.Device()
		devs[i].Crash()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	recovered, errs := server.AttachShards(devs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d failed recovery: %v", i, err)
		}
		if err := recovered[i].CheckConsistency(); err != nil {
			t.Fatalf("shard %d heap corrupt after recovery: %v", i, err)
		}
	}
	defer closeShardPools(recovered)

	stores := make([]*workloads.KVStore, n)
	for i, p := range recovered {
		kv, err := workloads.AttachKVStore(corundumeng.Wrap(p))
		if err != nil {
			t.Fatalf("shard %d: attach store: %v", i, err)
		}
		stores[i] = kv
	}

	// Per-shard ack-survival: every acknowledged SET is present with its
	// exact value on the shard that owns it.
	valid := make(map[uint64]bool, sentTotal)
	for _, k := range probeKeys {
		valid[k] = true
	}
	for id := range sent {
		for _, a := range sent[id] {
			valid[a.key] = true
			if !a.acked {
				continue
			}
			got, found, err := stores[workloads.ShardFor(a.key, n)].Get(a.key)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("acknowledged SET %d (shard %d) lost after crash+recovery",
					a.key, workloads.ShardFor(a.key, n))
			}
			if got != valFor(a.key) {
				t.Fatalf("acknowledged SET %d = %d after recovery, want %d (torn)", a.key, got, valFor(a.key))
			}
		}
	}
	// No torn or phantom values on any shard: every surviving key is one
	// we sent, holding exactly the value we sent (unacknowledged writes
	// are present-or-absent, never partial).
	scanned := 0
	for i, kv := range stores {
		err := kv.Scan(func(k, v uint64) bool {
			scanned++
			if !valid[k] {
				t.Errorf("phantom key %d after recovery", k)
				return false
			}
			if v != valFor(k) {
				t.Errorf("torn value for key %d: %d, want %d", k, v, valFor(k))
				return false
			}
			return true
		})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if scanned < ackedTotal {
		t.Fatalf("scan saw %d keys, fewer than %d acknowledged", scanned, ackedTotal)
	}
}

// TestShardRecoveryIsolation crashes shard i's recovery itself — power
// cut mid-rollback on reboot — and requires the other shards to come up
// and serve reads AND writes while shard i's keyspace slice answers
// -READONLY; a later clean re-attach of shard i finds its data intact.
func TestShardRecoveryIsolation(t *testing.T) {
	const n = 4
	const target = 1 // the shard whose recovery we kill
	pools := newShardPools(t, n, 16<<20)
	srv, addr := startShardedServer(t, pools, server.Options{MaxBatch: 8, Buckets: 64})

	// Seed every shard with acknowledged data.
	cl := dial(t, addr)
	type kvPair struct{ k, v uint64 }
	var targetKeys []kvPair
	for i := uint64(0); i < 200; i++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", i, valFor(i)), "+OK")
		if workloads.ShardFor(i, n) == target {
			targetKeys = append(targetKeys, kvPair{i, valFor(i)})
		}
	}
	if len(targetKeys) == 0 {
		t.Fatal("no seeded key routed to the target shard")
	}

	// Crash the target shard mid-commit so its image needs rollback work
	// at the next recovery.
	tdev := pools[target].Device()
	var opCount atomic.Uint64
	tdev.SetFaultInjector(func(op pmem.Op) bool {
		return opCount.Add(1) == 40
	})
	for i := uint64(0); srv.ShardDown(target) == nil && i < 1<<20; i++ {
		k := keyOnShard(target, n, 1<<50+i*n)
		if _, err := cl.cmd(fmt.Sprintf("SET %d 1", k)); err != nil {
			break
		}
	}
	tdev.SetFaultInjector(nil)
	if srv.ShardDown(target) == nil {
		t.Fatal("target shard never crashed under injected fault")
	}
	cl.close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot. The target device's recovery is itself cut by a power
	// failure (injected crash panic mid-rollback); the siblings recover
	// concurrently and must be untouched by the casualty.
	devs := make([]*pmem.Device, n)
	for i, p := range pools {
		devs[i] = p.Device()
		devs[i].Crash()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var recOps atomic.Uint64
	tdev.SetFaultInjector(func(op pmem.Op) bool {
		return recOps.Add(1) == 4
	})
	recovered, errs := server.AttachShards(devs)
	tdev.SetFaultInjector(nil)
	if errs[target] == nil || recovered[target] != nil {
		t.Fatalf("target shard recovery did not fail under injected crash (err=%v)", errs[target])
	}
	for i := range recovered {
		if i == target {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("sibling shard %d failed recovery: %v", i, errs[i])
		}
	}

	srv2, err := server.NewSharded(recovered, server.Options{MaxBatch: 8, Buckets: 64})
	if err != nil {
		t.Fatalf("NewSharded with a down shard: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln)
	defer srv2.Close()
	if srv2.ShardDown(target) == nil {
		t.Fatal("down shard not reported down")
	}
	if srv2.Halted() {
		t.Fatal("server halted although 3 shards are live")
	}

	// Live shards serve reads and writes concurrently, race-clean.
	var lwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		lwg.Add(1)
		go func(w int) {
			defer lwg.Done()
			c := dial(t, ln.Addr().String())
			defer c.close()
			for i := uint64(0); i < 50; i++ {
				k := keyOnShard((target+1+w%(n-1))%n, n, 1<<52+uint64(w)<<32|i*31)
				if reply := mustCmd(t, c, fmt.Sprintf("SET %d %d", k, valFor(k))); reply != "+OK" {
					t.Errorf("worker %d: SET on live shard = %q", w, reply)
					return
				}
				if reply := mustCmd(t, c, fmt.Sprintf("GET %d", k)); reply != fmt.Sprintf(":%d", valFor(k)) {
					t.Errorf("worker %d: GET on live shard = %q", w, reply)
					return
				}
			}
		}(w)
	}
	lwg.Wait()

	// Seeded keys on live shards survived; the down shard's slice answers
	// -READONLY for both reads and writes.
	cl2 := dial(t, ln.Addr().String())
	defer cl2.close()
	for i := uint64(0); i < 200; i++ {
		if workloads.ShardFor(i, n) == target {
			continue
		}
		mustReply(t, cl2, fmt.Sprintf("GET %d", i), fmt.Sprintf(":%d", valFor(i)))
	}
	for _, cmd := range []string{
		fmt.Sprintf("GET %d", targetKeys[0].k),
		fmt.Sprintf("SET %d 1", targetKeys[0].k),
	} {
		if reply := mustCmd(t, cl2, cmd); !strings.HasPrefix(reply, "-READONLY") {
			t.Fatalf("%s on down shard = %q, want -READONLY", cmd, reply)
		}
	}
	info := parseKV(t, mustCmd(t, cl2, "INFO"))
	if info["shards_down"] != "1" {
		t.Errorf("INFO shards_down = %q, want 1", info["shards_down"])
	}
	if _, ok := info[fmt.Sprintf("shard%d_down", target)]; !ok {
		t.Errorf("INFO missing shard%d_down", target)
	}

	// The casualty is not lost: after another power cycle its interrupted
	// recovery replays idempotently and every acknowledged key is intact.
	tdev.Crash()
	p2, err := pool.AttachRepair(tdev)
	if err != nil {
		t.Fatalf("target shard re-attach: %v", err)
	}
	defer p2.Close()
	kv, err := workloads.AttachKVStore(corundumeng.Wrap(p2))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range targetKeys {
		got, found, err := kv.Get(pair.k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || got != pair.v {
			t.Fatalf("target shard key %d = (%d,%v) after interrupted recovery, want %d", pair.k, got, found, pair.v)
		}
	}
	closeShardPools(recovered)
}
