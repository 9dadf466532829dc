package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"corundum/internal/client"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// TestMovedReplyDeterministic pins the -MOVED wire reply without racing
// the migration driver: the test builds the Resharder by hand, holds the
// TARGET shard's write lock, and runs one Step in the background. The
// step publishes its fence window first and then blocks applying at the
// target — freezing the window open — so a SET to a moving key is
// deterministically refused with "-MOVED <target>" while a GET keeps
// answering from the source. Releasing the lock lets the batch land,
// after which the same SET routes to the new owner and succeeds.
func TestMovedReplyDeterministic(t *testing.T) {
	var pools []*pool.Pool
	for i := 0; i < 2; i++ {
		p, err := pool.Create("", pool.Config{
			Size: 16 << 20, Journals: 8,
			Mem: pmem.Options{TrackCrash: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, p)
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	srv, err := NewSharded(pools, Options{MaxBatch: 8, Buckets: 128})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := client.Dial(ln.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(line string) string {
		t.Helper()
		rep, err := conn.Do(line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return rep.Head
	}

	// A key served by shard 1 today; the 2->1 merge moves it to shard 0.
	k := uint64(1)
	for workloads.ShardFor(k, 2) != 1 {
		k++
	}
	if rep := send(fmt.Sprintf("SET %d 7", k)); rep != "+OK" {
		t.Fatalf("seed SET = %q", rep)
	}

	st := srv.st()
	_, cfgEpoch, err := st.shards[0].kv.ReadConfig()
	if err != nil {
		t.Fatal(err)
	}
	// One batch covers the whole store, so the single Step below moves
	// every key of shard 1 (k included).
	rs, err := workloads.NewResharder(
		[]*workloads.KVStore{st.shards[0].kv, st.shards[1].kv},
		2, 1, cfgEpoch+1, int(st.shards[1].kv.Buckets()), shardCoord{st.shards})
	if err != nil {
		t.Fatal(err)
	}
	srv.state.Store(&routeState{shards: st.shards, n: 2, rs: rs})
	if err := rs.Init(); err != nil {
		t.Fatal(err)
	}

	st.shards[0].lock.Lock()
	unlocked := false
	defer func() {
		if !unlocked {
			st.shards[0].lock.Unlock()
		}
	}()
	stepDone := make(chan error, 1)
	go func() {
		_, err := rs.Step(1)
		stepDone <- err
	}()

	// SETs accepted before the fence publishes just update the expected
	// value; the first -MOVED marks the window up — and it stays up while
	// we hold the target's lock.
	want := uint64(7)
	var moved string
	deadline := time.Now().Add(10 * time.Second)
	for i := uint64(0); ; i++ {
		if time.Now().After(deadline) {
			t.Fatal("fence window never published")
		}
		rep := send(fmt.Sprintf("SET %d %d", k, 100+i))
		if rep == "+OK" {
			want = 100 + i
			time.Sleep(time.Millisecond)
			continue
		}
		moved = rep
		break
	}
	if !client.IsMovedReply(moved) {
		t.Fatalf("refusal = %q, want -MOVED", moved)
	}
	if got := client.MovedShard(moved); got != 0 {
		t.Fatalf("client.MovedShard(%q) = %d, want 0", moved, got)
	}
	// Deterministically refused again while the window is held open.
	if rep := send(fmt.Sprintf("SET %d 9999", k)); !client.IsMovedReply(rep) {
		t.Fatalf("second probe = %q, want -MOVED", rep)
	}
	// Reads never go wrong mid-window: the source still owns the key.
	if rep := send(fmt.Sprintf("GET %d", k)); rep != fmt.Sprintf(":%d", want) {
		t.Fatalf("GET mid-window = %q, want :%d", rep, want)
	}

	// A client running the write through Retry is refused while the
	// window is open and lands on the new owner once the batch does: the
	// hand-off is released only after Retry has seen a -MOVED.
	sawMoved := make(chan struct{})
	retried := make(chan string, 1)
	go func() {
		tries := 0
		rep, err := client.Retry(context.Background(), 1000, time.Millisecond, 5*time.Millisecond, nil,
			func() (string, error) {
				rep, err := conn.Do(fmt.Sprintf("SET %d 4242", k))
				if tries++; tries == 1 && err == nil && client.IsMovedReply(rep.Head) {
					close(sawMoved)
				}
				return rep.Head, err
			})
		if err != nil {
			rep = err.Error()
		}
		retried <- fmt.Sprintf("%s after %d tries", rep, tries)
	}()
	select {
	case <-sawMoved:
	case rep := <-retried:
		t.Fatalf("Retry finished with the window still open: %s", rep)
	}

	st.shards[0].lock.Unlock()
	unlocked = true
	if err := <-stepDone; err != nil {
		t.Fatal(err)
	}

	// The batch landed and the cursor advanced: the key's new owner
	// accepted the retried write, and the value lives on shard 0 now.
	if rep := <-retried; !strings.HasPrefix(rep, "+OK after ") {
		t.Fatalf("Retry across the handover = %q, want +OK", rep)
	}
	if rep := send(fmt.Sprintf("GET %d", k)); rep != ":4242" {
		t.Fatalf("GET after handover = %q, want :4242", rep)
	}
	st.shards[0].lock.RLock()
	v, found, err := st.shards[0].kv.Get(k)
	st.shards[0].lock.RUnlock()
	if err != nil || !found || v != 4242 {
		t.Fatalf("shard 0 store holds (%d, %v, %v), want (4242, true, nil)", v, found, err)
	}
	st.shards[1].lock.RLock()
	_, still, err := st.shards[1].kv.Get(k)
	st.shards[1].lock.RUnlock()
	if err != nil || still {
		t.Fatalf("key %d still present at the source after the batch (err=%v)", k, err)
	}
}

// TestOwnershipVetOutlivesMigration is the regression test for an
// acknowledged-write loss: a SET routed to a migration's source shard just
// before the last hand-over could reach that shard's committer just after
// the migration committed, find no admission vet installed, and commit on
// a shard that no longer owned the key — acked, then unreadable. Each
// batcher's ownership vet is permanent now: a stale-routed op is refused
// with MovedError naming the committed owner and never touches the store.
func TestOwnershipVetOutlivesMigration(t *testing.T) {
	for _, c := range []struct{ from, to, stale int }{
		{from: 1, to: 3, stale: 0}, // a source that kept serving: Server.Batcher()
		{from: 3, to: 1, stale: 2}, // a shard the merge retired
	} {
		t.Run(fmt.Sprintf("%dto%d", c.from, c.to), func(t *testing.T) {
			var pools []*pool.Pool
			for i := 0; i < c.from; i++ {
				p, err := pool.Create("", pool.Config{Size: 16 << 20, Journals: 8})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				pools = append(pools, p)
			}
			srv, err := NewSharded(pools, Options{MaxBatch: 8, Buckets: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for k := uint64(0); k < 200; k++ {
				sh := srv.st().shards[workloads.ShardFor(k, c.from)]
				if _, err := sh.b.Submit(workloads.Op{Key: k, Val: k + 1}); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.Reshard(c.to); err != nil {
				t.Fatal(err)
			}
			srv.migWG.Wait()
			if err := srv.MigrationError(); err != nil {
				t.Fatal(err)
			}
			if st := srv.st(); st.n != c.to || st.rs != nil {
				t.Fatalf("routing view after the migration: n=%d rs=%v, want n=%d and no resharder", st.n, st.rs, c.to)
			}

			var stale *shard
			srv.allMu.Lock()
			for _, sh := range srv.all {
				if sh.id == c.stale {
					stale = sh
				}
			}
			srv.allMu.Unlock()
			if c.stale == 0 && stale.b != srv.Batcher() {
				t.Fatal("Server.Batcher() is not shard 0's batcher")
			}
			// A key that is new to the store and owned by some other shard.
			k := uint64(1 << 20)
			for workloads.ShardFor(k, c.to) == c.stale {
				k++
			}
			owner := workloads.ShardFor(k, c.to)

			_, err = stale.b.Submit(workloads.Op{Key: k, Val: 99})
			var moved workloads.MovedError
			if !errors.As(err, &moved) || moved.Shard != owner {
				t.Fatalf("stale-routed SET on shard %d = %v, want MovedError to shard %d", c.stale, err, owner)
			}
			stale.lock.RLock()
			_, found, err := stale.kv.Get(k)
			stale.lock.RUnlock()
			if err != nil || found {
				t.Fatalf("shard %d holds the refused key (found=%v, err=%v)", c.stale, found, err)
			}
			// Deletes are vetted the same way: a key that moved away cannot
			// be reported "not found" by the shard it left.
			gone := uint64(0)
			for workloads.ShardFor(gone, c.to) == c.stale {
				gone++
			}
			if _, err := stale.b.Submit(workloads.Op{Del: true, Key: gone}); !errors.As(err, &moved) {
				t.Fatalf("stale-routed DEL on shard %d = %v, want MovedError", c.stale, err)
			}
			// The owner takes both.
			ob := srv.st().shards[owner].b
			if _, err := ob.Submit(workloads.Op{Key: k, Val: 99}); err != nil {
				t.Fatalf("owner shard %d refused the key: %v", owner, err)
			}
			if removed, err := srv.st().shards[workloads.ShardFor(gone, c.to)].b.Submit(workloads.Op{Del: true, Key: gone}); err != nil || !removed {
				t.Fatalf("owner's DEL of migrated key %d = (%v, %v), want (true, nil)", gone, removed, err)
			}
		})
	}
}
