package server_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corundum/internal/client"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
	"corundum/internal/workloads"
)

// replOpts keeps replication tests fast: short heartbeats, small batches.
func replOpts() server.Options {
	return server.Options{MaxBatch: 8, Buckets: 64, ReplHeartbeat: 50 * time.Millisecond}
}

// startPrimary builds a sharded server serving clients AND the
// replication stream, returning (server, clientAddr, replAddr).
func startPrimary(t *testing.T, pools []*pool.Pool, opts server.Options) (*server.Server, string, string) {
	t.Helper()
	srv, err := server.NewSharded(pools, opts)
	if err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableReplicationSource(rln); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), rln.Addr().String()
}

// startReplica builds a sharded server already in the replica role.
func startReplica(t *testing.T, pools []*pool.Pool, opts server.Options, primaryAddr string) (*server.Server, string) {
	t.Helper()
	srv, err := server.NewSharded(pools, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ReplicaOf(primaryAddr); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// scanMap parses a SCAN reply into a map; nil when the reply is an
// error (e.g. -BUSY during a bootstrap).
func scanMap(t *testing.T, cl *conn) map[uint64]uint64 {
	t.Helper()
	out := mustCmd(t, cl, "SCAN")
	if !strings.HasPrefix(out, "*") {
		return nil
	}
	return scanToMap(t, out)
}

func sameMap(a, b map[uint64]uint64) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// waitReplicaHas polls SCAN on cl until it equals model byte-exactly.
func waitReplicaHas(t *testing.T, cl *conn, model map[uint64]uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if got := scanMap(t, cl); sameMap(got, model) {
			return
		}
		if time.Now().After(deadline) {
			got := scanMap(t, cl)
			t.Fatalf("replica never converged: have %d keys, want %d", len(got), len(model))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationBootstrapTailAndRedirect is the happy path end to end:
// a replica bootstraps from a populated primary via snapshot, follows
// the live tail, serves reads, and redirects mutations to the primary's
// advertised client address in a form Retry/ReadonlyPrimary understand.
func TestReplicationBootstrapTailAndRedirect(t *testing.T) {
	poolsA := newShardPools(t, 2, 16<<20)
	defer closeShardPools(poolsA)
	poolsB := newShardPools(t, 2, 16<<20)
	defer closeShardPools(poolsB)

	srvA, addrA, replA := startPrimary(t, poolsA, replOpts())
	defer srvA.Close()
	clA := dial(t, addrA)
	defer clA.close()

	model := map[uint64]uint64{}
	for k := uint64(0); k < 200; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}

	// Bootstrap: the replica joins after the fact, so it full-syncs.
	srvB, addrB := startReplica(t, poolsB, replOpts(), replA)
	defer srvB.Close()
	clB := dial(t, addrB)
	defer clB.close()
	waitReplicaHas(t, clB, model)
	if fs := srvB.ReplicaStatus().FullSyncs; fs != 1 {
		t.Fatalf("bootstrap full syncs = %d, want 1", fs)
	}

	// Live tail: new writes (including deletes) flow without a resync.
	for k := uint64(200); k < 300; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	mustReply(t, clA, "DEL 0", ":1")
	delete(model, 0)
	waitReplicaHas(t, clB, model)
	if fs := srvB.ReplicaStatus().FullSyncs; fs != 1 {
		t.Fatalf("tail caused %d full syncs, want 1", fs)
	}
	// With the write window over and the replica caught up, lag drains to
	// zero on both ends (the primary's view trails by one ACK).
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		lagA, lagB := srvA.ReplLag().Frames, srvB.ReplLag().Frames
		if lagA == 0 && lagB == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag never drained after the write window: primary sees %d frames, replica %d", lagA, lagB)
		}
	}

	// Replica reads work; mutations redirect to the PRIMARY'S CLIENT
	// address (not its replication listener) in ReadonlyPrimary form.
	mustReply(t, clB, "GET 5", fmt.Sprintf(":%d", valFor(5)))
	reply := mustCmd(t, clB, "SET 5 1")
	if !client.IsReadonlyReply(reply) || !client.IsRetryableReply(reply) {
		t.Fatalf("SET on replica = %q, want retryable -READONLY", reply)
	}
	if got := client.ReadonlyPrimary(reply); got != addrA {
		t.Fatalf("redirect addr = %q, want primary client addr %q", got, addrA)
	}
	for _, cmd := range []string{"DEL 5", "RESHARD 3", "BACKUP /tmp/nope", "RESTORE /tmp/nope"} {
		if reply := mustCmd(t, clB, cmd); !client.IsReadonlyReply(reply) {
			t.Fatalf("%s on replica = %q, want -READONLY", cmd, reply)
		}
	}

	// Observability: both sides agree on roles and the lag keys exist.
	infoB := parseKV(t, mustCmd(t, clB, "REPLINFO"))
	if infoB["repl_role"] != "replica" || infoB["repl_primary_addr"] != replA {
		t.Fatalf("replica REPLINFO = %v", infoB)
	}
	for _, key := range []string{"repl_lag_frames", "repl_lag_bytes", "repl_lag_seconds", "repl_frames_applied"} {
		if _, ok := infoB[key]; !ok {
			t.Fatalf("replica REPLINFO missing %s", key)
		}
	}
	infoA := parseKV(t, mustCmd(t, clA, "REPLINFO"))
	if infoA["repl_role"] != "primary" || infoA["repl_connected_replicas"] != "1" {
		t.Fatalf("primary REPLINFO = %v", infoA)
	}
	if parseKV(t, mustCmd(t, clB, "INFO"))["repl_role"] != "replica" {
		t.Fatal("INFO on replica does not report the role")
	}
}

// TestReplicationLinkCutResume cuts the link repeatedly under write load:
// every reconnect must resume from the durable cursor with zero loss.
func TestReplicationLinkCutResume(t *testing.T) {
	poolsA := newShardPools(t, 2, 16<<20)
	defer closeShardPools(poolsA)
	poolsB := newShardPools(t, 1, 16<<20)
	defer closeShardPools(poolsB)

	srvA, addrA, replA := startPrimary(t, poolsA, replOpts())
	defer srvA.Close()
	srvB, addrB := startReplica(t, poolsB, replOpts(), replA)
	defer srvB.Close()
	clA := dial(t, addrA)
	defer clA.close()
	clB := dial(t, addrB)
	defer clB.close()

	model := map[uint64]uint64{}
	for k := uint64(0); k < 400; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
		if k%100 == 50 {
			srvB.ReplKickLink()
		}
	}
	waitReplicaHas(t, clB, model)
	if rc := srvB.ReplicaStatus().Reconnects; rc < 2 {
		t.Fatalf("reconnects = %d after 4 link cuts, want ≥ 2", rc)
	}
}

// flipProxy forwards replica→primary connections; once armed it flips a
// single byte of primary→replica traffic, corrupting one stream frame.
type flipProxy struct {
	ln     net.Listener
	target string
	armed  atomic.Bool
	flips  atomic.Uint64
	wg     sync.WaitGroup
}

func newFlipProxy(t *testing.T, target string) *flipProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flipProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p
}

func (p *flipProxy) addr() string { return p.ln.Addr().String() }

func (p *flipProxy) close() {
	p.ln.Close()
	p.wg.Wait()
}

func (p *flipProxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer conn.Close()
			defer up.Close()
			go io.Copy(up, conn) // replica → primary (SYNC, ACKs)
			buf := make([]byte, 4096)
			for {
				n, err := up.Read(buf)
				if n > 0 {
					// Flip one byte mid-buffer exactly once after arming.
					if p.armed.CompareAndSwap(true, false) {
						buf[n/2] ^= 0x20
						p.flips.Add(1)
					}
					if _, werr := conn.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
	}
}

// TestReplicationCorruptFrameResume injects a single flipped byte into
// the live stream: the replica must reject the frame on CRC, drop the
// link, and converge byte-exactly after the cursor-anchored resume —
// the corrupt frame is never applied, the redelivered one exactly once.
func TestReplicationCorruptFrameResume(t *testing.T) {
	poolsA := newShardPools(t, 2, 16<<20)
	defer closeShardPools(poolsA)
	poolsB := newShardPools(t, 2, 16<<20)
	defer closeShardPools(poolsB)

	srvA, addrA, replA := startPrimary(t, poolsA, replOpts())
	defer srvA.Close()
	proxy := newFlipProxy(t, replA)
	defer proxy.close()
	srvB, addrB := startReplica(t, poolsB, replOpts(), proxy.addr())
	defer srvB.Close()
	clA := dial(t, addrA)
	defer clA.close()
	clB := dial(t, addrB)
	defer clB.close()

	model := map[uint64]uint64{}
	for k := uint64(0); k < 100; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	waitReplicaHas(t, clB, model)

	proxy.armed.Store(true)
	for k := uint64(100); k < 300; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	waitReplicaHas(t, clB, model)
	if proxy.flips.Load() != 1 {
		t.Fatalf("proxy flipped %d bytes, want 1", proxy.flips.Load())
	}
	st := srvB.ReplicaStatus()
	if st.CRCRejects < 1 {
		t.Fatalf("CRC rejects = %d after a flipped byte, want ≥ 1", st.CRCRejects)
	}
	if st.Reconnects < 2 {
		t.Fatalf("reconnects = %d, want ≥ 2 (initial + post-reject)", st.Reconnects)
	}
}

// TestReplicationPromoteFailover runs the failover matrix: promote the
// replica under a live stream, write to the new primary, then re-point
// the deposed primary at it — the old primary's stale epoch forces a
// full resync, after which both serve the same keyspace and the old
// primary redirects mutations to the new one.
func TestReplicationPromoteFailover(t *testing.T) {
	poolsA := newShardPools(t, 2, 16<<20)
	defer closeShardPools(poolsA)
	poolsB := newShardPools(t, 2, 16<<20)
	defer closeShardPools(poolsB)

	srvA, addrA, replA := startPrimary(t, poolsA, replOpts())
	defer srvA.Close()

	// B is a replica that ALSO has a replication listener: parked until
	// PROMOTE makes it the primary.
	srvB, err := server.NewSharded(poolsB, replOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	if err := srvB.ReplicaOf(replA); err != nil {
		t.Fatal(err)
	}
	rlnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srvB.EnableReplicationSource(rlnB); err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srvB.Serve(lnB)
	addrB := lnB.Addr().String()

	clA := dial(t, addrA)
	defer clA.close()
	clB := dial(t, addrB)
	defer clB.close()

	model := map[uint64]uint64{}
	for k := uint64(0); k < 150; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	waitReplicaHas(t, clB, model)

	// Failover: B stops syncing, bumps its durable epoch, starts serving
	// the stream on the parked listener, and accepts writes.
	mustReply(t, clB, "PROMOTE", "+OK")
	mustReply(t, clB, "SET 1000 1", "+OK")
	model[1000] = 1
	infoB := parseKV(t, mustCmd(t, clB, "REPLINFO"))
	if infoB["repl_role"] != "primary" || infoB["repl_epoch"] != "2" {
		t.Fatalf("post-promote REPLINFO = %v", infoB)
	}

	// The deposed primary rejoins as a replica. Its epoch (1) is behind
	// the new primary's (2), so the handshake forces a full resync.
	if err := srvA.ReplicaOf(rlnB.Addr().String()); err != nil {
		t.Fatal(err)
	}
	waitReplicaHas(t, clA, model)
	if fs := srvA.ReplicaStatus().FullSyncs; fs < 1 {
		t.Fatalf("deposed primary full syncs = %d, want ≥ 1", fs)
	}
	if st, ok := srvB.ReplPrimaryStatus(); !ok || st.FullSyncs < 1 {
		t.Fatalf("new primary source status = %+v ok=%v", st, ok)
	}

	// Mutations on the deposed primary now redirect to the NEW primary.
	reply := mustCmd(t, clA, "SET 1 1")
	if got := client.ReadonlyPrimary(reply); got != addrB {
		t.Fatalf("deposed primary redirects to %q, want %q", got, addrB)
	}

	// And the new keyspace keeps flowing A-ward.
	mustReply(t, clB, "SET 2000 2", "+OK")
	model[2000] = 2
	waitReplicaHas(t, clA, model)
}

// TestReplicationStaleRefusal points a PROMOTED node (durable epoch 2)
// at a primary still on epoch 1: the primary must answer -STALE and the
// stale-side store must stay untouched — no wipe, no regression.
func TestReplicationStaleRefusal(t *testing.T) {
	poolsA := newShardPools(t, 1, 16<<20)
	defer closeShardPools(poolsA)
	poolsB := newShardPools(t, 1, 16<<20)
	defer closeShardPools(poolsB)

	srvA, addrA, replA := startPrimary(t, poolsA, replOpts())
	defer srvA.Close()
	srvB, addrB := startReplica(t, poolsB, replOpts(), replA)
	defer srvB.Close()
	clA := dial(t, addrA)
	defer clA.close()
	clB := dial(t, addrB)
	defer clB.close()

	model := map[uint64]uint64{}
	for k := uint64(0); k < 50; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	waitReplicaHas(t, clB, model)
	mustReply(t, clB, "PROMOTE", "+OK") // B: epoch 2, standalone

	// Misconfiguration: pointing the newer-epoch node at the older one.
	if err := srvB.ReplicaOf(replA); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !srvB.ReplicaStatus().StaleOfPeer {
		if time.Now().After(deadline) {
			t.Fatal("stale refusal never surfaced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st, _ := srvA.ReplPrimaryStatus(); st.StaleRejs < 1 {
		t.Fatalf("primary stale rejections = %d, want ≥ 1", st.StaleRejs)
	}
	// B kept its keyspace: -STALE refuses before any wipe.
	if got := scanMap(t, clB); !sameMap(got, model) {
		t.Fatalf("stale node lost data: %d keys, want %d", len(got), len(model))
	}
	if fs := srvB.ReplicaStatus().FullSyncs; fs != 0 {
		t.Fatalf("stale node ran %d full syncs, want 0", fs)
	}
}

// TestReplicationAdminExclusion races the admin operations (satellite):
// while a replica-bootstrap snapshot walk is parked on the primary,
// RESHARD/BACKUP/RESTORE must refuse with -BUSY and PROMOTE on the
// half-loaded replica must refuse too; while a BACKUP walk is parked, a
// new replica's bootstrap must be held out (and converge after release).
func TestReplicationAdminExclusion(t *testing.T) {
	poolsA := newShardPools(t, 2, 16<<20)
	defer closeShardPools(poolsA)
	poolsB := newShardPools(t, 1, 16<<20)
	defer closeShardPools(poolsB)
	poolsC := newShardPools(t, 1, 16<<20)
	defer closeShardPools(poolsC)

	srvA, err := server.NewSharded(poolsA, replOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	// Walk instrumentation: phase 1 parks the replica-bootstrap snapshot
	// walk, phase 2 parks the BACKUP walk. Parks are bounded and released
	// before server teardown so a failed assertion cannot wedge Close
	// behind a walk that still holds the admin slot.
	var phase atomic.Int32
	parked := make(chan struct{}, 16)
	hold1, hold2 := make(chan struct{}), make(chan struct{})
	var releaseOnce1, releaseOnce2 sync.Once
	release1 := func() { releaseOnce1.Do(func() { close(hold1) }) }
	release2 := func() { releaseOnce2.Do(func() { close(hold2) }) }
	defer release1() // LIFO: runs before the deferred srv Closes above
	defer release2()
	park := func(hold <-chan struct{}) {
		select {
		case parked <- struct{}{}:
		default:
		}
		select {
		case <-hold:
		case <-time.After(10 * time.Second):
		}
	}
	srvA.SetBackupChunkHook(func(shard int, bucket uint64) {
		switch phase.Load() {
		case 1:
			park(hold1)
		case 2:
			park(hold2)
		}
	})
	rlnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srvA.EnableReplicationSource(rlnA); err != nil {
		t.Fatal(err)
	}
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srvA.Serve(lnA)
	clA := dial(t, lnA.Addr().String())
	defer clA.close()

	model := map[uint64]uint64{}
	for k := uint64(0); k < 100; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	backupPath := filepath.Join(t.TempDir(), "pre.backup")
	if reply := mustCmd(t, clA, "BACKUP "+backupPath); !strings.Contains(reply, "base_keys") {
		t.Fatalf("pre-test backup failed: %q", reply)
	}

	// Phase 1: park a replica bootstrap's snapshot walk on the primary.
	phase.Store(1)
	srvB, addrB := startReplica(t, poolsB, replOpts(), rlnA.Addr().String())
	defer srvB.Close()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("bootstrap snapshot walk never reached the hook")
	}
	clB := dial(t, addrB)
	defer clB.close()
	for _, cmd := range []string{"RESHARD 3", "BACKUP " + backupPath + ".x", "RESTORE " + backupPath} {
		if reply := mustCmd(t, clA, cmd); !client.IsBusyReply(reply) {
			t.Fatalf("%s during a replica snapshot = %q, want -BUSY", cmd, reply)
		}
	}
	// The replica is mid-bootstrap: reads are -BUSY, and PROMOTE would
	// abandon a half-loaded keyspace, so it must refuse. (The walk is
	// parked on the primary; wait for the replica to see SnapBegin.)
	loadDeadline := time.Now().Add(10 * time.Second)
	for parseKV(t, mustCmd(t, clB, "REPLINFO"))["repl_bootstrap_loading"] != "true" {
		if time.Now().After(loadDeadline) {
			t.Fatal("replica never entered the bootstrap load")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if reply := mustCmd(t, clB, "PROMOTE"); !client.IsBusyReply(reply) {
		t.Fatalf("PROMOTE mid-bootstrap = %q, want -BUSY", reply)
	}
	if reply := mustCmd(t, clB, "SCAN"); !client.IsBusyReply(reply) {
		t.Fatalf("SCAN mid-bootstrap = %q, want -BUSY", reply)
	}
	phase.Store(0)
	release1()
	waitReplicaHas(t, clB, model)

	// Phase 2: park a BACKUP walk; a joining replica's snapshot claim
	// must be refused (-BUSY verdict → backoff) until the walk finishes.
	phase.Store(2)
	backupDone := make(chan string, 1)
	go func() {
		out, _ := dialCmd(lnA.Addr().String(), "BACKUP "+backupPath+".2")
		backupDone <- out
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("backup walk never reached the hook")
	}
	srvC, addrC := startReplica(t, poolsC, replOpts(), rlnA.Addr().String())
	defer srvC.Close()
	time.Sleep(100 * time.Millisecond) // give C time to be refused
	if fs := srvC.ReplicaStatus().FullSyncs; fs != 0 {
		t.Fatalf("replica bootstrapped during a held BACKUP (%d full syncs)", fs)
	}
	phase.Store(0)
	release2()
	if out := <-backupDone; !strings.Contains(out, "base_keys") {
		t.Fatalf("held backup failed: %q", out)
	}
	clC := dial(t, addrC)
	defer clC.close()
	waitReplicaHas(t, clC, model)
}

// dialCmd runs a single command on a fresh connection (for goroutines
// that must not share a client).
func dialCmd(addr, cmd string) (string, error) {
	c, err := client.Dial(addr, 0)
	if err != nil {
		return "", err
	}
	defer c.Close()
	rep, err := c.Do(cmd)
	return rep.String(), err
}

// TestReplicationPowerCutMidApply power-cuts the replica's devices while
// it applies the live stream, reboots it from the durable images, and
// re-points it at the primary: the durable cursor must resume the
// stream with every frame applied exactly once — byte-exact convergence.
func TestReplicationPowerCutMidApply(t *testing.T) {
	poolsA := newShardPools(t, 2, 16<<20)
	defer closeShardPools(poolsA)
	poolsB := newShardPools(t, 2, 16<<20)
	devsB := []*pmem.Device{poolsB[0].Device(), poolsB[1].Device()}

	srvA, addrA, replA := startPrimary(t, poolsA, replOpts())
	defer srvA.Close()
	srvB, _ := startReplica(t, poolsB, replOpts(), replA)
	clA := dial(t, addrA)
	defer clA.close()

	model := map[uint64]uint64{}
	for k := uint64(0); k < 100; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	// Arm the cut on shard 0 — the shard whose transactions carry the
	// fused cursor advance — and keep writing until it fires.
	devsB[0].CrashAt(devsB[0].OpCount() + 500)
	for k := uint64(100); k < 800; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	deadline := time.Now().Add(15 * time.Second)
	for srvB.ShardDown(0) == nil {
		if time.Now().After(deadline) {
			t.Fatal("injected crash never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srvB.Close()

	// Power cut: poison the devices, then reboot from the images.
	for _, d := range devsB {
		d.Crash()
	}
	ps, errs := server.AttachShards(devsB)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reattaching replica shard %d: %v", i, err)
		}
	}
	defer closeShardPools(ps)
	srvB2, addrB2 := startReplica(t, ps, replOpts(), replA)
	defer srvB2.Close()
	clB2 := dial(t, addrB2)
	defer clB2.close()
	waitReplicaHas(t, clB2, model)
	t.Logf("resumed after power cut: %+v", srvB2.ReplicaStatus())
}

// TestReplicationPowerCutMidBootstrap power-cuts the replica while it
// loads the bootstrap snapshot. The wipe marker must be detected at
// boot — the half-loaded keyspace (and its zeroed cursor) wiped — and a
// fresh REPLICAOF must full-resync to byte-exact convergence.
func TestReplicationPowerCutMidBootstrap(t *testing.T) {
	poolsA := newShardPools(t, 2, 16<<20)
	defer closeShardPools(poolsA)
	poolsB := newShardPools(t, 2, 16<<20)
	devsB := []*pmem.Device{poolsB[0].Device(), poolsB[1].Device()}

	srvA, addrA, replA := startPrimary(t, poolsA, replOpts())
	defer srvA.Close()
	clA := dial(t, addrA)
	defer clA.close()
	model := map[uint64]uint64{}
	for k := uint64(0); k < 2000; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}

	// Arm a cut that lands inside the snapshot chunk loading (the wipe
	// marker and cursor zeroing are only a handful of ops).
	srvB, _ := startReplica(t, poolsB, replOpts(), replA)
	devsB[1].CrashAt(devsB[1].OpCount() + 400)
	deadline := time.Now().Add(15 * time.Second)
	for srvB.ShardDown(1) == nil {
		if time.Now().After(deadline) {
			t.Fatal("injected crash never fired during bootstrap")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srvB.Close()

	for _, d := range devsB {
		d.Crash()
	}
	ps, errs := server.AttachShards(devsB)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reattaching replica shard %d: %v", i, err)
		}
	}
	defer closeShardPools(ps)
	// Boot adopts the wipe marker: the partial snapshot is gone, and the
	// re-pointed replica bootstraps from scratch rather than claiming the
	// half-load as caught up.
	srvB2, addrB2 := startReplica(t, ps, replOpts(), replA)
	defer srvB2.Close()
	clB2 := dial(t, addrB2)
	defer clB2.close()
	waitReplicaHas(t, clB2, model)
	if fs := srvB2.ReplicaStatus().FullSyncs; fs < 1 {
		t.Fatalf("rebooted replica full syncs = %d, want ≥ 1", fs)
	}
}

// TestReplicationMetricsExposed pins the metric names the CI gates and
// dashboards scrape.
func TestReplicationMetricsExposed(t *testing.T) {
	poolsA := newShardPools(t, 1, 16<<20)
	defer closeShardPools(poolsA)
	srvA, addrA, _ := startPrimary(t, poolsA, replOpts())
	defer srvA.Close()
	clA := dial(t, addrA)
	defer clA.close()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srvA.DebugMux().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, name := range []string{
		"server_repl_role", "server_repl_lag_frames",
		"server_repl_lag_bytes", "server_repl_lag_seconds",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
	stats := parseKV(t, mustCmd(t, clA, "STATS"))
	if _, ok := stats["repl_lag_frames"]; !ok {
		t.Fatal("STATS missing repl_lag_frames")
	}
}

// TestReplicaNeverRedirectsToReplicationAddr pins what a replica answers
// before the SYNC handshake has taught it the primary's client address:
// a retryable refusal naming NO address — never the configured
// replication address, which does not speak the client protocol. The
// "primary" here is a listener that accepts and then says nothing, so
// the handshake can never complete.
func TestReplicaNeverRedirectsToReplicationAddr(t *testing.T) {
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	go func() {
		for {
			c, err := mute.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { c.Close() }) // held open, never answered
		}
	}()

	pools := newShardPools(t, 2, 16<<20)
	defer closeShardPools(pools)
	srv, addr := startReplica(t, pools, replOpts(), mute.Addr().String())
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.close()

	for _, cmd := range []string{"SET 1 1", "DEL 1", "RESHARD 3", "BACKUP /tmp/nope", "RESTORE /tmp/nope"} {
		reply := mustCmd(t, cl, cmd)
		if strings.Contains(reply, mute.Addr().String()) {
			t.Fatalf("%s on a replica with no handshake = %q: names the replication address", cmd, reply)
		}
		if !client.IsBusyReply(reply) || client.ReadonlyPrimary(reply) != "" {
			t.Fatalf("%s on a replica with no handshake = %q, want an address-free -BUSY", cmd, reply)
		}
	}
	mustReply(t, cl, "GET 1", "$-1") // reads still serve
}

// TestPrimaryPowerCutMidCommitLeavesNoGap cuts power on the primary at
// every device op of a one-DEL batch in turn, reboots it from the
// durable image into the same role on the same replication address, and
// requires the replica to converge on whatever the reboot holds. A cut
// after the batch's commit point leaves the delete durable on the
// primary though its commit never returned; if the stream fills that
// sequence with a gap frame, the replica advances over it to exactly the
// rebooted primary's durable position, is told +CONT, and keeps the key
// forever. (The old-bug-3a divergence: "primary N keys, replica N+1".)
func TestPrimaryPowerCutMidCommitLeavesNoGap(t *testing.T) {
	poolsB := newShardPools(t, 1, 16<<20)
	defer closeShardPools(poolsB)
	poolsA := newShardPools(t, 1, 16<<20)
	dev := poolsA[0].Device()

	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replAddr := rln.Addr().String()
	boot := func(pools []*pool.Pool, rln net.Listener) (*server.Server, *conn) {
		srv, err := server.NewSharded(pools, replOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.EnableReplicationSource(rln); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		return srv, dial(t, ln.Addr().String())
	}
	srvA, clA := boot(poolsA, rln)
	defer func() { clA.close(); srvA.Close() }()
	const keys = 128
	for k := uint64(0); k < keys; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
	}
	srvB, addrB := startReplica(t, poolsB, replOpts(), replAddr)
	defer srvB.Close()
	clB := dial(t, addrB)
	defer clB.close()
	waitReplicaHas(t, clB, scanMap(t, clA))

	// -short sweeps only the batch's tail, where the commit point lies;
	// each cut costs the replica a reconnect backoff.
	first := uint64(1)
	if testing.Short() {
		before := dev.OpCount()
		mustReply(t, clA, "DEL 0", ":1")
		first = dev.OpCount() - before - 16
	}
	for cut := first; cut < keys; cut++ {
		dev.CrashAt(dev.OpCount() + cut)
		if rep, err := clA.cmd(fmt.Sprintf("DEL %d", cut)); err == nil && rep == ":1" {
			dev.CrashAt(0) // past the batch's last op: the sweep is complete
			waitReplicaHas(t, clB, scanMap(t, clA))
			t.Logf("swept cut points %d..%d; replica ran %d full syncs", first, cut-1, srvB.ReplicaStatus().FullSyncs)
			return
		}
		deadline := time.Now().Add(10 * time.Second)
		for srvA.ShardDown(0) == nil {
			if time.Now().After(deadline) {
				t.Fatalf("cut %d: the power cut never fired", cut)
			}
			time.Sleep(time.Millisecond)
		}
		clA.close()
		srvA.Close()
		dev.Crash()
		pools, errs := server.AttachShards([]*pmem.Device{dev})
		if errs[0] != nil {
			t.Fatalf("cut %d: reattaching the primary: %v", cut, errs[0])
		}
		if rln, err = net.Listen("tcp", replAddr); err != nil {
			t.Fatalf("cut %d: re-listening on %s: %v", cut, replAddr, err)
		}
		srvA, clA = boot(pools, rln)
		waitReplicaHas(t, clB, scanMap(t, clA))
	}
	t.Fatal("a one-DEL batch outlasted every cut point tried")
}

// TestReplicaRoleRefusedAtCommit: the role check a connection handler
// makes before routing is not the last word. An op routed while the node
// was still a primary can reach the committer after REPLICAOF — behind
// the bootstrap's drain, so after its wipe — and a commit there diverges
// the replica for good. The batcher's permanent vet must refuse it.
func TestReplicaRoleRefusedAtCommit(t *testing.T) {
	pools := newShardPools(t, 1, 16<<20)
	defer closeShardPools(pools)
	srv, addr := startShardedServer(t, pools, replOpts())
	defer srv.Close()
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	if err := srv.ReplicaOf(deadAddr); err != nil {
		t.Fatal(err)
	}
	// Straight to the committer: what a handler that had already passed
	// its own role check would do next.
	if _, err := srv.Batcher().Submit(workloads.Op{Key: 7, Val: 49}); !errors.Is(err, pool.ErrBusy) && !errors.Is(err, pool.ErrReadOnly) {
		t.Fatalf("mutation committed on a replica: Submit = %v, want a role refusal", err)
	}
	cl := dial(t, addr)
	defer cl.close()
	mustReply(t, cl, "GET 7", "$-1")
}
