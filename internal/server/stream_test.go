package server_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corundum/internal/client"
	"corundum/internal/repl"
	"corundum/internal/server"
	"corundum/internal/workloads"
)

// These tests cover BACKUP as a subscriber of the server's change
// stream: what it does when commits outrun the stream's window, what it
// leaves behind, what happens when the stream ends under it, and that
// base+delta is the store at one stream position.

// backupGrammar reads a backup file's frame types as a string, one
// letter per frame: H header, B base, E shard-end, D delta, F footer.
func backupGrammar(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if _, err := io.ReadFull(r, make([]byte, len("CRDBKP01"))); err != nil {
		t.Fatal(err)
	}
	var g strings.Builder
	for {
		typ, _, err := repl.ReadFrame(r)
		if err == io.EOF {
			return g.String()
		}
		if err != nil || typ < 1 || typ > 5 {
			t.Fatalf("%s: frame %d: type %d, %v", path, g.Len()+1, typ, err)
		}
		g.WriteByte(" HBDEF"[typ])
	}
}

// wantGrammar requires the file layout BACKUP has always written:
// header, then per shard its base chunks and its shard-end, then delta
// chunks, then the footer.
func wantGrammar(t *testing.T, path string, shards int) {
	t.Helper()
	want := regexp.MustCompile(fmt.Sprintf(`^H(B*E){%d}D*F$`, shards))
	if g := backupGrammar(t, path); !want.MatchString(g) {
		t.Fatalf("backup frame grammar %q, want %s", g, want)
	}
}

// restoreInto restores path into a fresh single-shard server and returns
// its keyspace.
func restoreInto(t *testing.T, path string) map[uint64]uint64 {
	t.Helper()
	pools := newShardPools(t, 1, 16<<20)
	defer closeShardPools(pools)
	srv, addr := startShardedServer(t, pools, server.Options{MaxBatch: 8, Buckets: 256})
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.close()
	if rep := mustCmd(t, cl, "RESTORE "+path); !strings.HasPrefix(rep, "$") {
		t.Fatalf("RESTORE %s = %q", path, rep)
	}
	return scanToMap(t, mustCmd(t, cl, "SCAN"))
}

// TestBackupOutrunsStreamWindow parks a BACKUP's walk while 240 batches
// commit against a stream window of 8 frames: the backup holds its tail,
// so it completes (a replica that far behind would be told to resync)
// and the file restores to the store as it stood when the walk ended.
func TestBackupOutrunsStreamWindow(t *testing.T) {
	pools := newShardPools(t, 2, 16<<20)
	defer closeShardPools(pools)
	srv, err := server.NewSharded(pools, server.Options{MaxBatch: 8, Buckets: 256, ReplLogFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	var (
		hookMu sync.Mutex
		hookCl *conn
		model  = map[uint64]uint64{}
	)
	const burst = 240
	srv.SetBackupChunkHook(func(shard int, _ uint64) {
		hookMu.Lock()
		defer hookMu.Unlock()
		if hookCl == nil || shard != 0 {
			return
		}
		// Synchronous SETs: each is a batch, and a stream frame, of its own.
		for i := uint64(0); i < burst; i++ {
			k, v := i%64, 1_000_000+i
			if rep, err := hookCl.cmd(fmt.Sprintf("SET %d %d", k, v)); err != nil || rep != "+OK" {
				t.Errorf("mid-walk SET %d = (%q, %v)", k, rep, err)
				return
			}
			model[k] = v
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl := dial(t, ln.Addr().String())
	defer cl.close()
	for k := uint64(0); k < 100; k++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	batches0, _ := srv.BatchTotals()
	mut := dial(t, ln.Addr().String())
	defer mut.close()
	hookMu.Lock()
	hookCl = mut
	hookMu.Unlock()

	path := filepath.Join(t.TempDir(), "outrun.crdbkp")
	rep := parseKV(t, mustCmd(t, cl, "BACKUP "+path))
	if t.Failed() {
		t.FailNow()
	}
	if batches1, _ := srv.BatchTotals(); batches1-batches0 < 200 {
		t.Fatalf("only %d batches committed under the parked walk, want ≥ 200", batches1-batches0)
	}
	// Every one of them is a frame above the pin, so all ride the delta
	// (shard 1's, walked after the burst, are in its base chunks as well;
	// replay is idempotent).
	if rep["delta_ops"] != strconv.Itoa(burst) {
		t.Fatalf("delta_ops = %q after a burst of %d mid-walk SETs", rep["delta_ops"], burst)
	}
	wantGrammar(t, path, 2)
	if got := restoreInto(t, path); !sameMap(got, model) {
		t.Fatalf("restored %d keys, want the %d the store held when the walk ended", len(got), len(model))
	}
}

// TestBackupLeavesNoResumableCursor: a BACKUP on a node that never
// replicated attaches a stream of its own, and that stream must leave
// nothing durable behind — a cursor {epoch, seq} written by it would let
// the node, later pointed at a primary of the same epoch whose log
// happens to cover seq, resume incrementally from a position that means
// nothing there. It must bootstrap: exactly one full sync, no +CONT.
func TestBackupLeavesNoResumableCursor(t *testing.T) {
	poolsA := newShardPools(t, 1, 16<<20)
	defer closeShardPools(poolsA)
	poolsB := newShardPools(t, 1, 16<<20)
	defer closeShardPools(poolsB)

	srvB, err := server.NewSharded(poolsB, replOpts())
	if err != nil {
		t.Fatal(err)
	}
	var hookCl atomic.Pointer[conn]
	srvB.SetBackupChunkHook(func(int, uint64) {
		if cl := hookCl.Load(); cl != nil {
			for i := 0; i < 5; i++ { // five frames through the backup's stream
				if rep, err := cl.cmd(fmt.Sprintf("SET %d 5", 500+i)); err != nil || rep != "+OK" {
					t.Errorf("mid-walk SET = (%q, %v)", rep, err)
				}
			}
		}
	})
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srvB.Serve(lnB)
	defer srvB.Close()
	clB := dial(t, lnB.Addr().String())
	defer clB.close()
	mustReply(t, clB, "SET 1 1", "+OK")
	mut := dial(t, lnB.Addr().String())
	defer mut.close()
	hookCl.Store(mut)
	rep := parseKV(t, mustCmd(t, clB, "BACKUP "+filepath.Join(t.TempDir(), "b.crdbkp")))
	hookCl.Store(nil)
	if rep["delta_ops"] != "5" {
		t.Fatalf("delta_ops = %q, want the 5 mid-walk SETs", rep["delta_ops"])
	}
	info := parseKV(t, mustCmd(t, clB, "REPLINFO"))
	if info["repl_role"] != "none" || info["repl_cursor_epoch"] != "0" || info["repl_cursor_seq"] != "0" {
		t.Fatalf("after a BACKUP on a never-replicated node REPLINFO = %v, want role none and cursor {0, 0}", info)
	}
	mustReply(t, clB, "SET 2 2", "+OK") // the detached batchers still commit

	// A fresh primary at epoch 1 whose log covers every sequence the
	// backup's stream used.
	srvA, addrA, replA := startPrimary(t, poolsA, replOpts())
	defer srvA.Close()
	clA := dial(t, addrA)
	defer clA.close()
	model := map[uint64]uint64{}
	for k := uint64(0); k < 20; k++ {
		mustReply(t, clA, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	mustReply(t, clB, "REPLICAOF "+replA, "+OK")
	waitReplicaHas(t, clB, model)
	if st, _ := srvA.ReplPrimaryStatus(); st.FullSyncs != 1 || st.ContSyncs != 0 {
		t.Fatalf("primary served %d full and %d incremental syncs, want exactly one full sync", st.FullSyncs, st.ContSyncs)
	}
}

// TestBackupFailsWhenStreamEnds demotes a primary under a parked BACKUP:
// the stream the backup reads ends with the role, so the backup must
// fail — retryably, the node can be backed up again once it has a role —
// and the file it leaves has no footer, which RESTORE rejects.
func TestBackupFailsWhenStreamEnds(t *testing.T) {
	pools := newShardPools(t, 2, 16<<20)
	defer closeShardPools(pools)
	srv, err := server.NewSharded(pools, replOpts())
	if err != nil {
		t.Fatal(err)
	}
	parked, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv.SetBackupChunkHook(func(int, uint64) {
		once.Do(func() {
			close(parked)
			select {
			case <-hold:
			case <-time.After(10 * time.Second):
			}
		})
	})
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
	defer srv.Close()
	cl := dial(t, ln.Addr().String())
	defer cl.close()
	for k := uint64(0); k < 50; k++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
	}

	path := filepath.Join(t.TempDir(), "cut.crdbkp")
	done := make(chan string, 1)
	go func() {
		out, _ := dialCmd(ln.Addr().String(), "BACKUP "+path)
		done <- out
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("backup walk never reached the hook")
	}
	// Nothing listens where the new primary is said to be; the demotion
	// itself is what matters.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	mustReply(t, cl, "REPLICAOF "+deadAddr, "+OK")
	close(hold)
	if out := <-done; !client.IsBusyReply(out) {
		t.Fatalf("BACKUP across a demotion = %q, want a retryable -BUSY", out)
	}
	if g := backupGrammar(t, path); !strings.HasPrefix(g, "H") || strings.Contains(g, "F") {
		t.Fatalf("the failed backup left frames %q, want a header and no footer", g)
	}

	other := newShardPools(t, 1, 16<<20)
	defer closeShardPools(other)
	srv2, addr2 := startShardedServer(t, other, server.Options{MaxBatch: 8, Buckets: 64})
	defer srv2.Close()
	cl2 := dial(t, addr2)
	defer cl2.close()
	if rep := mustCmd(t, cl2, "RESTORE "+path); !strings.HasPrefix(rep, "-ERR") || !strings.Contains(rep, "rejecting") {
		t.Fatalf("RESTORE of the footerless file = %q, want a rejection", rep)
	}
}

// TestBackupIsOneStreamPosition runs writers across both shards while a
// BACKUP walks them, with no lock shared between the shards' walks.
// Each writer owns its keys, writes them round-robin with synchronous
// SETs of unique values (so its writes enter the stream in order,
// alternating shards), and keeps going until the backup has returned.
// The restored keyspace must then be, for every writer, exactly the
// effect of a PREFIX of its writes: some write p is the last one
// reflected, every key holds its last value at or before p, and nothing
// after p shows anywhere. A snapshot that caught one shard later than
// the other — base and delta not one stream position — breaks that.
func TestBackupIsOneStreamPosition(t *testing.T) {
	pools := newShardPools(t, 2, 16<<20)
	defer closeShardPools(pools)
	srv, err := server.NewSharded(pools, server.Options{MaxBatch: 8, Buckets: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 3
		keysPer = 16
	)
	var acked atomic.Int64
	// Every walk window (4 per shard) waits for the writers to make
	// progress, so commits land before, between and after the windows of
	// both shards.
	srv.SetBackupChunkHook(func(int, uint64) {
		target := acked.Load() + 12
		deadline := time.Now().Add(10 * time.Second)
		for acked.Load() < target && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	key := func(w, i int) uint64 { return uint64(w+1)<<20 | uint64(i%keysPer) }
	val := func(w, i int) uint64 { return uint64(w+1)<<40 | uint64(i+1) }
	for w := 0; w < writers; w++ {
		shards := map[int]bool{}
		for i := 0; i < keysPer; i++ {
			shards[workloads.ShardFor(key(w, i), 2)] = true
		}
		if len(shards) != 2 {
			t.Fatalf("writer %d's keys all route to one shard", w)
		}
	}

	stop := make(chan struct{})
	counts := make([]int, writers) // writes acked, per writer
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := dial(t, ln.Addr().String())
			defer wc.close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					counts[w] = i
					return
				default:
				}
				if rep, err := wc.cmd(fmt.Sprintf("SET %d %d", key(w, i), val(w, i))); err != nil || rep != "+OK" {
					t.Errorf("writer %d: SET #%d = (%q, %v)", w, i, rep, err)
					counts[w] = i
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	cl := dial(t, ln.Addr().String())
	defer cl.close()
	path := filepath.Join(t.TempDir(), "live.crdbkp")
	rep := parseKV(t, mustCmd(t, cl, "BACKUP "+path))
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if rep["delta_ops"] == "0" {
		t.Fatal("no write rode the delta; the writers never overlapped the walk")
	}
	wantGrammar(t, path, 2)

	restored := restoreInto(t, path)
	for w := 0; w < writers; w++ {
		// p: the latest of this writer's writes the snapshot reflects.
		p := -1
		for i := 0; i < counts[w]; i++ {
			if restored[key(w, i)] == val(w, i) {
				p = i
			}
		}
		for j := 0; j < keysPer; j++ {
			k := key(w, j)
			var want uint64 // the key's last write at or before p
			for i := p; i >= 0; i-- {
				if key(w, i) == k {
					want = val(w, i)
					break
				}
			}
			if got, ok := restored[k]; got != want || ok != (want != 0) {
				t.Fatalf("writer %d: snapshot reflects write #%d (of %d) but key %d holds %d, want %d — not a prefix of the writer's history",
					w, p, counts[w], k, got, want)
			}
		}
		for j := 0; j < keysPer; j++ {
			delete(restored, key(w, j))
		}
	}
	if len(restored) != 0 {
		t.Fatalf("snapshot holds %d keys nobody wrote: %v", len(restored), restored)
	}
}
