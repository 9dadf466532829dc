package server_test

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/client"
	"corundum/internal/journal"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
	"corundum/internal/workloads"
)

// TestServerBusyBackpressure exhausts the pool's only journal slot and
// asserts a SET is answered -BUSY (a retryable signal) instead of
// blocking the connection forever, and that client.Retry rides out the
// exhaustion once the slot frees. Reads take no journal slot, so GET
// serves normally all the while.
func TestServerBusyBackpressure(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 8 << 20, Journals: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, p, server.Options{BusyTimeout: 20 * time.Millisecond})
	defer srv.Close()

	// Occupy the only journal slot from outside the server.
	hold := make(chan struct{})
	held := make(chan struct{})
	go func() {
		_ = p.Transaction(func(j *journal.Journal) error {
			close(held)
			<-hold
			return nil
		})
	}()
	<-held

	cl := dial(t, addr)
	defer cl.close()
	reply, err := cl.cmd("SET 7 70")
	if err != nil {
		t.Fatal(err)
	}
	if !client.IsBusyReply(reply) {
		t.Fatalf("SET under journal exhaustion = %q, want -BUSY", reply)
	}
	if srv.Halted() {
		t.Fatal("server halted on BUSY")
	}
	mustReply(t, cl, "GET 7", "$-1")

	// Release the slot shortly; the backoff helper must converge.
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(hold)
	}()
	reply, err = client.Retry(context.Background(), 20, time.Millisecond, 20*time.Millisecond, client.IsBusyReply, func() (string, error) {
		return cl.cmd("SET 7 70")
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply != "+OK" {
		t.Fatalf("SET 7 after release = %q, want +OK", reply)
	}
	mustReply(t, cl, "GET 7", ":70")
}

// TestServerGracefulShutdownDurability models the SIGTERM path: a client
// is pipelining SETs when Close runs. Close must drain the batcher, every
// write the client saw +OK for must be durable after reopening the pool,
// and the shutdown must be clean (recovery finds nothing to do).
func TestServerGracefulShutdownDurability(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 16 << 20, Journals: 8, Mem: pmem.Options{TrackCrash: true}})
	if err != nil {
		t.Fatal(err)
	}
	dev := p.Device()
	srv, addr := startServer(t, p, server.Options{ReplHeartbeat: 20 * time.Millisecond})

	// A replica rides along: the SIGTERM contract is that Close drains
	// the batcher AND then the replication send queue, so every write the
	// client saw +OK for is on the replica when the process exits.
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableReplicationSource(rln); err != nil {
		t.Fatal(err)
	}
	pR, err := pool.Create("", pool.Config{Size: 16 << 20, Journals: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer pR.Close()
	srvR, addrR := startServer(t, pR, server.Options{ReplHeartbeat: 20 * time.Millisecond})
	defer srvR.Close()
	if err := srvR.ReplicaOf(rln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	// Drain only covers connected replicas: wait for the link before
	// opening the write flood.
	linkDeadline := time.Now().Add(10 * time.Second)
	for {
		if st, ok := srv.ReplPrimaryStatus(); ok && st.Replicas == 1 {
			break
		}
		if time.Now().After(linkDeadline) {
			t.Fatal("replica never connected")
		}
		time.Sleep(2 * time.Millisecond)
	}

	cl := dial(t, addr)
	defer cl.close()
	const n = 400
	go func() {
		// Pipeline without waiting for replies; the connection may die
		// mid-stream when Close fires, which is fine — unacked writes are
		// allowed to be absent.
		for i := uint64(1); i <= n; i++ {
			if err := cl.Send(fmt.Sprintf("SET %d %d", i, i*10)); err != nil {
				return
			}
		}
	}()

	var acked atomic.Uint64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			rep, err := cl.Recv()
			if err != nil {
				return
			}
			if rep.Head == "+OK" {
				acked.Add(1)
			}
		}
	}()

	time.Sleep(3 * time.Millisecond) // let a prefix of the stream land
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-readerDone
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := pool.Attach(dev)
	if err != nil {
		t.Fatalf("reopen after graceful shutdown: %v", err)
	}
	if rb, rf := p2.Recovery(); rb != 0 || rf != 0 {
		t.Fatalf("graceful shutdown left recovery work: rolled back %d, forward %d", rb, rf)
	}
	kv, err := workloads.AttachKVStore(corundumeng.Wrap(p2))
	if err != nil {
		t.Fatalf("attach after shutdown: %v", err)
	}
	got := acked.Load()
	for i := uint64(1); i <= got; i++ {
		val, found, err := kv.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if !found || val != i*10 {
			t.Fatalf("acked write %d lost after graceful shutdown (found=%v val=%d, %d acked)", i, found, val, got)
		}
	}
	// Zero-lag handoff: every acked write is already on the replica — no
	// catch-up needed after the primary's graceful exit.
	clR := dial(t, addrR)
	defer clR.close()
	for i := uint64(1); i <= got; i++ {
		mustReply(t, clR, fmt.Sprintf("GET %d", i), fmt.Sprintf(":%d", i*10))
	}
	if lag := srvR.ReplLag(); lag.Frames != 0 {
		t.Fatalf("replica lag after graceful shutdown = %+v, want zero frames", lag)
	}
	t.Logf("acked %d/%d writes before shutdown; all durable and replicated", got, n)
}
