package server_test

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
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

// startServer builds a server over p and serves it on a loopback listener.
func startServer(t *testing.T, p *pool.Pool, opts server.Options) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(p, opts)
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

// conn is the tests' view of a client.Conn: replies as one normalized
// string (head line, then body lines, '\n'-joined).
type conn struct{ *client.Conn }

func dial(t *testing.T, addr string) *conn {
	t.Helper()
	c, err := client.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &conn{c}
}

func (cl *conn) close() { cl.Close() }

func (cl *conn) cmd(line string) (string, error) {
	rep, err := cl.Do(line)
	return rep.String(), err
}

func mustReply(t *testing.T, cl *conn, cmd, want string) {
	t.Helper()
	got, err := cl.cmd(cmd)
	if err != nil {
		t.Fatalf("%s: %v", cmd, err)
	}
	if got != want {
		t.Fatalf("%s = %q, want %q", cmd, got, want)
	}
}

func TestServerBasic(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 16 << 20, Journals: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, addr := startServer(t, p, server.Options{MaxBatch: 8, Buckets: 64})
	defer srv.Close()

	cl := dial(t, addr)
	defer cl.close()

	mustReply(t, cl, "PING", "+PONG")
	mustReply(t, cl, "GET 1", "$-1")
	mustReply(t, cl, "SET 1 100", "+OK")
	mustReply(t, cl, "GET 1", ":100")
	mustReply(t, cl, "SET 1 200", "+OK")
	mustReply(t, cl, "GET 1", ":200")
	mustReply(t, cl, "SET 2 42", "+OK")
	mustReply(t, cl, "DEL 1", ":1")
	mustReply(t, cl, "DEL 1", ":0")
	mustReply(t, cl, "GET 1", "$-1")
	mustReply(t, cl, "SCAN", "*1\n2 42")
	mustReply(t, cl, "SCAN 0", "*1\n2 42")

	if got, err := cl.cmd("BOGUS"); err != nil || !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("BOGUS = %q, %v; want -ERR", got, err)
	}
	if got, err := cl.cmd("SET a b"); err != nil || !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("SET a b = %q, %v; want -ERR", got, err)
	}

	info, err := cl.cmd("INFO")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"server: corundum-server", "journals: 8", "recovery_rolled_back: 0", "halted: false"} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO missing %q in:\n%s", want, info)
		}
	}
	stats, err := cl.cmd("STATS")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ops_set: 3", "ops_get: 4", "batches_committed:", "pmem_fences:"} {
		if !strings.Contains(stats, want) {
			t.Errorf("STATS missing %q in:\n%s", want, stats)
		}
	}
	mustReply(t, cl, "QUIT", "+OK")
}

// TestServerFileRestart exercises the corundum-server startup path: data
// acknowledged before a clean shutdown is served after reopening the pool
// file.
func TestServerFileRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.pool")
	p, err := pool.Create(path, pool.Config{Size: 16 << 20, Journals: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, p, server.Options{Buckets: 64})
	cl := dial(t, addr)
	for i := 0; i < 50; i++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", i, i*7), "+OK")
	}
	cl.close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := pool.Open(path, pmem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	srv2, addr2 := startServer(t, p2, server.Options{})
	defer srv2.Close()
	cl2 := dial(t, addr2)
	defer cl2.close()
	for i := 0; i < 50; i++ {
		mustReply(t, cl2, fmt.Sprintf("GET %d", i), fmt.Sprintf(":%d", i*7))
	}
}

// TestServerConcurrentClients hammers the batcher from 8 pipelining
// clients on disjoint key ranges and verifies every write through a
// second pass of GETs, plus batching evidence in the stats.
func TestServerConcurrentClients(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 64 << 20, Journals: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, addr := startServer(t, p, server.Options{MaxBatch: 32})
	defer srv.Close()

	const clients, perClient = 8, 300
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := dial(t, addr)
			defer cl.close()
			for i := 0; i < perClient; i++ {
				key := uint64(id)<<32 | uint64(i)
				got, err := cl.cmd(fmt.Sprintf("SET %d %d", key, key^0xABCD))
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", id, err)
					return
				}
				if got != "+OK" {
					errs <- fmt.Errorf("client %d: SET = %q", id, got)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cl := dial(t, addr)
	defer cl.close()
	for id := 0; id < clients; id++ {
		for i := 0; i < perClient; i += 17 {
			key := uint64(id)<<32 | uint64(i)
			mustReply(t, cl, fmt.Sprintf("GET %d", key), fmt.Sprintf(":%d", key^0xABCD))
		}
	}
	bs := srv.Batcher().Stats()
	if got := bs.BatchedOps.Load(); got != clients*perClient {
		t.Errorf("batched ops %d, want %d", got, clients*perClient)
	}
	if batches := bs.Batches.Load(); batches == clients*perClient {
		t.Logf("no batching observed (every op its own transaction); load may be too serial")
	}
}

// valFor derives the unique value each crash-test key is written with, so
// any key whose stored value differs is torn.
func valFor(key uint64) uint64 { return key*0x9E3779B97F4A7C15 + 1 }

// TestServerCrashRecovery is the concurrent crash-consistency contract
// from the paper applied to the serving layer: 8 concurrent clients
// stream SETs, power is cut at a random device operation mid-load, the
// pool is recovered, and then every acknowledged SET must be present with
// its exact value while unacknowledged SETs are atomically present or
// absent — never torn.
func TestServerCrashRecovery(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { crashRound(t, seed) })
	}
}

func crashRound(t *testing.T, seed int64) {
	p, err := pool.Create("", pool.Config{
		Size: 64 << 20, Journals: 16,
		Mem: pmem.Options{TrackCrash: true, FlightRecorder: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, p, server.Options{MaxBatch: 32})

	// Arm the fault injector only after the server (and its store) exist:
	// the crash lands mid-load, not mid-format.
	dev := p.Device()
	rng := rand.New(rand.NewSource(seed))
	crashAt := uint64(2000 + rng.Intn(30000))
	var opCount atomic.Uint64
	dev.SetFaultInjector(func(op pmem.Op) bool {
		return opCount.Add(1) == crashAt
	})

	const clients = 8
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
			c, err := client.Dial(addr, 0)
			if err != nil {
				return // server may already be down
			}
			defer c.Close()
			for i := 0; ; i++ {
				key := uint64(id+1)<<40 | uint64(i)
				sent[id] = append(sent[id], ack{key: key})
				rep, err := c.Do(fmt.Sprintf("SET %d %d", key, valFor(key)))
				if err != nil || rep.Head != "+OK" {
					return
				}
				sent[id][len(sent[id])-1].acked = true
			}
		}(id)
	}
	wg.Wait()
	dev.SetFaultInjector(nil)

	if !srv.Halted() {
		t.Fatalf("server did not halt (only %d device ops reached, crashAt=%d)", opCount.Load(), crashAt)
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
		t.Fatalf("no SET was acknowledged before the crash (sent %d); crash landed too early", sentTotal)
	}
	t.Logf("seed %d: crash at device op %d; %d sent, %d acked", seed, crashAt, sentTotal, ackedTotal)

	// The flight recorder must explain the cut: a CRASH marker preceded by
	// the fence history that led up to it, so a failing crash test can name
	// the exact operation the power loss interrupted.
	events := dev.FlightEvents()
	crashIdx, lastFence := -1, -1
	for i, e := range events {
		switch e.Op {
		case pmem.OpCrash:
			if crashIdx == -1 {
				crashIdx = i
			}
		case pmem.OpFence:
			if crashIdx == -1 {
				lastFence = i
			}
		}
	}
	if crashIdx == -1 {
		t.Fatalf("flight recorder holds no CRASH marker:\n%s", pmem.FormatFlight(events))
	}
	if lastFence == -1 {
		t.Fatalf("flight recorder shows no fence before the cut:\n%s", pmem.FormatFlight(events))
	}
	tail := events
	if len(tail) > 16 {
		tail = tail[len(tail)-16:]
	}
	t.Logf("last fence before the cut: #%d scope=%s; flight tail:\n%s",
		events[lastFence].Seq, events[lastFence].Scope, pmem.FormatFlight(tail))

	// Power loss and reboot: live state reverts to durable state, then the
	// pool recovers exactly as corundum-server does at startup.
	dev.Crash()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := pool.Attach(dev)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer p2.Close()
	if err := p2.CheckConsistency(); err != nil {
		t.Fatalf("heap corrupt after recovery: %v", err)
	}
	kv, err := workloads.AttachKVStore(corundumeng.Wrap(p2))
	if err != nil {
		t.Fatalf("attach after recovery: %v", err)
	}

	// Every acknowledged SET must have survived with its exact value.
	valid := make(map[uint64]bool, sentTotal)
	for id := range sent {
		for _, a := range sent[id] {
			valid[a.key] = true
			if !a.acked {
				continue
			}
			got, found, err := kv.Get(a.key)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("acknowledged SET %d lost after crash+recovery", a.key)
			}
			if got != valFor(a.key) {
				t.Fatalf("acknowledged SET %d = %d after recovery, want %d (torn)", a.key, got, valFor(a.key))
			}
		}
	}
	// No torn or phantom values anywhere: every surviving key must be one
	// we sent, holding exactly the value we sent (unacknowledged writes are
	// present-or-absent, never partial).
	var scanned int
	scanErr := kv.Scan(func(k, v uint64) bool {
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
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if scanned < ackedTotal {
		t.Fatalf("scan saw %d keys, fewer than %d acknowledged", scanned, ackedTotal)
	}
}

// TestScrubReportsChainShape loads tenant-prefixed keys, (t+1)<<40 | id
// over 16 ids, into a base-64 store and reads the chains' shape from
// SCRUB. Each id's 256 keys share every bit key·fib keeps, so a directory
// that took its split bits from key·fib alone would leave 256-entry
// chains however far it grew.
func TestScrubReportsChainShape(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 32 << 20, Journals: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, addr := startServer(t, p, server.Options{Buckets: 64})
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.close()

	const tenants, ids = 256, 16
	for tenant := uint64(1); tenant <= tenants; tenant++ {
		var b strings.Builder
		for id := uint64(0); id < ids; id++ {
			fmt.Fprintf(&b, "SET %d %d\n", tenant<<40|id, id)
		}
		if err := cl.Send(strings.TrimSuffix(b.String(), "\n")); err != nil {
			t.Fatal(err)
		}
		for range ids {
			if rep, err := cl.Recv(); err != nil || rep.String() != "+OK" {
				t.Fatalf("SET reply = %q, %v", rep.String(), err)
			}
		}
	}
	scrub, err := cl.cmd("SCRUB")
	if err != nil {
		t.Fatal(err)
	}
	field := func(name string) float64 {
		for _, line := range strings.Split(scrub, "\n") {
			if v, ok := strings.CutPrefix(line, name+": "); ok {
				var f float64
				if _, err := fmt.Sscan(v, &f); err != nil {
					t.Fatalf("SCRUB %s = %q: %v", name, v, err)
				}
				return f
			}
		}
		t.Fatalf("SCRUB reply has no %s:\n%s", name, scrub)
		return 0
	}
	if !strings.Contains(scrub, "store_integrity: ok") {
		t.Fatalf("SCRUB found damage:\n%s", scrub)
	}
	longest, mean := field("store_longest_chain"), field("store_mean_hit_pos")
	if longest < 1 || longest > 64 || mean < 1 || mean > longest {
		t.Fatalf("SCRUB reports longest chain %v, mean hit position %v; want 1 <= mean <= longest <= 64", longest, mean)
	}
	t.Logf("%d tenant keys: longest chain %v, mean hit position %v", tenants*ids, longest, mean)
}
