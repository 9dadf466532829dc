package server_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"corundum/internal/journal"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/repl"
	"corundum/internal/server"
)

// committedHistory reads, from the server's change stream, every value
// ever committed for each key. A reader that observes (k, v) can then
// assert v was committed at some point: a batch publishes its frame
// inside the commit critical section, so the publish happens-before the
// commit's lock release, which happens-before any read bracket that can
// see v — by the time v is observable its frame is in the stream (one
// shard, so every published frame is contiguous at once).
type committedHistory struct {
	mu   sync.Mutex
	log  *repl.Log
	next uint64 // frames up to here are folded into vals
	vals map[uint64]map[uint64]bool
}

func newCommittedHistory(log *repl.Log) *committedHistory {
	return &committedHistory{log: log, next: log.Contiguous(), vals: make(map[uint64]map[uint64]bool)}
}

func (h *committedHistory) committed(key, val uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.next < h.log.Contiguous() {
		f, ok, err := h.log.Next(h.next, time.Second, nil)
		if err != nil || !ok {
			return false // the history fell out of the log's window
		}
		h.next = f.Seq
		for _, op := range f.Ops {
			if op.Del {
				continue // absence is always a legitimate observation
			}
			m := h.vals[op.Key]
			if m == nil {
				m = make(map[uint64]bool)
				h.vals[op.Key] = m
			}
			m[op.Val] = true
		}
	}
	return h.vals[key][val]
}

// TestReadPathHammer is the seqlock adversarial test: 8 reader
// goroutines hammer GET and SCAN over live connections while the
// committer churns overwrites, deletes, and alloc-heavy inserts of
// fresh keys (entry allocation + freeing recycles blocks, which is what
// makes stale chain pointers dangerous). Every value any reader
// observes must have been committed by some batch — a torn, phantom, or
// uncommitted value fails the run. Both modes of the read walk are
// exercised: bracketed, and under the read lock (ForceLockedMode). The -grow
// variants start the store at a base of 8 buckets, so the same churn
// drives its directory through several levels of splits while readers
// also chase the fresh keys being split. Run with -race in CI, where the
// atomic discipline of the device word stores is also what is under
// test.
func TestReadPathHammer(t *testing.T) {
	for _, mode := range []struct {
		name    string
		locked  bool
		buckets int
	}{{"lockfree", false, 0}, {"locked", true, 0}, {"lockfree-grow", false, 8}, {"locked-grow", true, 8}} {
		t.Run(mode.name, func(t *testing.T) {
			p, err := pool.Create("", pool.Config{
				Size: 64 << 20, Journals: 8,
				Mem: pmem.Options{Profile: pmem.NoDelay},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			srv, addr := startServer(t, p, server.Options{MaxBatch: 32, Buckets: mode.buckets})
			defer srv.Close()
			if mode.locked {
				srv.ForceLockedMode()
			}

			hist := newCommittedHistory(srv.SubscribeStream())

			const (
				hotKeys = 64
				rounds  = 50
				readers = 8
			)
			done := make(chan struct{})
			var wg sync.WaitGroup

			// Committer churn: each round overwrites the hot band with
			// fresh values, deletes a sliding window of it, and inserts a
			// band of brand-new keys (alloc-heavy: every insert allocates
			// an entry, every delete frees one for recycling).
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				wcl := dial(t, addr)
				defer wcl.close()
				cold := uint64(1 << 20)
				for r := 0; r < rounds; r++ {
					var b strings.Builder
					n := 0
					for k := uint64(0); k < hotKeys; k++ {
						fmt.Fprintf(&b, "SET %d %d\n", k, uint64(r+1)<<32|k)
						n++
					}
					for k := uint64(r % 8); k < hotKeys; k += 8 {
						fmt.Fprintf(&b, "DEL %d\n", k)
						n++
					}
					for i := 0; i < 16; i++ {
						fmt.Fprintf(&b, "SET %d %d\n", cold, cold^0xABCD)
						cold++
						n++
					}
					if err := wcl.Send(strings.TrimSuffix(b.String(), "\n")); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
					for i := 0; i < n; i++ {
						if _, err := wcl.Recv(); err != nil {
							t.Errorf("writer reply: %v", err)
							return
						}
					}
				}
			}()

			for rdr := 0; rdr < readers; rdr++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rcl := dial(t, addr)
					defer rcl.close()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						if i%32 == 31 {
							reply, err := rcl.cmd("SCAN 40")
							if err != nil {
								t.Errorf("SCAN: %v", err)
								return
							}
							for _, line := range strings.Split(reply, "\n")[1:] {
								var k, v uint64
								if _, err := fmt.Sscanf(line, "%d %d", &k, &v); err != nil {
									t.Errorf("SCAN pair %q: %v", line, err)
									return
								}
								if !hist.committed(k, v) {
									t.Errorf("SCAN observed uncommitted pair %d=%d", k, v)
									return
								}
							}
							continue
						}
						k := uint64(rng.Intn(hotKeys))
						if mode.buckets != 0 && i%2 == 1 {
							k = 1<<20 + uint64(rng.Intn(rounds*16))
						}
						reply, err := rcl.cmd(fmt.Sprintf("GET %d", k))
						if err != nil {
							t.Errorf("GET %d: %v", k, err)
							return
						}
						if reply == "$-1" {
							continue
						}
						var v uint64
						if _, err := fmt.Sscanf(reply, ":%d", &v); err != nil {
							t.Errorf("GET %d reply %q: %v", k, reply, err)
							return
						}
						if !hist.committed(k, v) {
							t.Errorf("GET %d observed uncommitted value %d", k, v)
							return
						}
					}
				}(int64(rdr))
			}
			wg.Wait()

			lockFree, _, _ := srv.ReadPathStats()
			if !mode.locked && lockFree == 0 {
				t.Fatal("lock-free mode served zero reads through the seqlock path")
			}
			if mode.locked && lockFree != 0 {
				t.Fatal("locked mode served reads through the seqlock path")
			}
			if mode.buckets != 0 {
				cl := dial(t, addr)
				defer cl.close()
				if b, _ := strconv.Atoi(parseKV(t, mustCmd(t, cl, "STATS"))["store_buckets"]); b < 8<<3 {
					t.Fatalf("the store grew to %d buckets, want three levels past its base of 8", b)
				}
			}
		})
	}
}

// TestLockFreeReadNeedsNoJournalSlot pins the read path's resource
// contract: no read takes a journal slot. With every slot held, GET and
// SCAN serve from their brackets. With the shard's writer lock held as
// well, no bracket can validate: both reads wait for the read lock and
// then serve committed values from the locked walk — never -BUSY, which
// is what a read that opened a transaction would answer.
func TestLockFreeReadNeedsNoJournalSlot(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 8 << 20, Journals: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, p, server.Options{BusyTimeout: 20 * time.Millisecond})
	defer srv.Close()

	cl := dial(t, addr)
	defer cl.close()
	mustReply(t, cl, "SET 7 42", "+OK")

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
	defer close(hold)

	fences := p.Device().Stats().Fences
	mustReply(t, cl, "GET 7", ":42")
	mustReply(t, cl, "GET 9999", "$-1")
	mustReply(t, cl, "SCAN", "*1\n7 42")
	// A read costs no fence either, so fences/op can only fall as the
	// read share of a mix rises.
	if got := p.Device().Stats().Fences - fences; got != 0 {
		t.Fatalf("three reads cost %d device fences, want 0", got)
	}

	_, _, fallbacks := srv.ReadPathStats()
	release := srv.HoldShardLock(0)
	reads := []struct {
		cl        *conn
		cmd, want string
	}{{dial(t, addr), "GET 7", ":42"}, {dial(t, addr), "SCAN", "*1\n7 42"}}
	for _, r := range reads {
		defer r.cl.close()
		if err := r.cl.Send(r.cmd); err != nil {
			release()
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, fb := srv.ReadPathStats(); fb >= fallbacks+2 {
			break
		}
		if time.Now().After(deadline) {
			release()
			t.Fatal("reads never fell back from their brackets while the writer lock was held")
		}
	}
	release()
	for _, r := range reads {
		rep, err := r.cl.Recv()
		if err != nil {
			t.Fatalf("%s: %v", r.cmd, err)
		}
		if got := rep.String(); got != r.want {
			t.Fatalf("%s through the locked walk, every journal slot held = %q, want %q", r.cmd, got, r.want)
		}
	}
}

// TestCorruptEntryAnswersDataCorrupt flips one bit of a chain entry's
// value word in a live server's pool. The bracketed walk sees a checksum
// mismatch in a stable bracket, so it walks again under the read lock,
// where the mismatch is damage: GET of that key and SCAN both answer
// -ERR naming data corruption, never a wrong value, and the server counts
// each in server_corruption_errors_total.
func TestCorruptEntryAnswersDataCorrupt(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, addr := startServer(t, p, server.Options{})
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.close()

	const key, val, other = 0x0123456789ABCDEF, 0x5EEDC0DE00000042, 9
	mustReply(t, cl, fmt.Sprintf("SET %d %d", uint64(key), uint64(val)), "+OK")
	mustReply(t, cl, fmt.Sprintf("SET %d 1", other), "+OK")

	// The entry is [key][next][val][crc], 32-byte aligned: find it by its
	// key and value words.
	dev := p.Device()
	var entries []uint64
	for e := uint64(0); e+32 <= uint64(dev.Size()); e += 32 {
		if dev.Load8(e) == key && dev.Load8(e+16) == val {
			entries = append(entries, e)
		}
	}
	if len(entries) != 1 {
		t.Fatalf("found %d entries holding key %#x, want 1", len(entries), uint64(key))
	}
	p.Device().InjectBitFlip(entries[0]+16, 5)

	_, _, fallbacks := srv.ReadPathStats()
	for _, cmd := range []string{fmt.Sprintf("GET %d", uint64(key)), "SCAN"} {
		reply, err := cl.cmd(cmd)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(reply, "-ERR") || !strings.Contains(reply, "data corrupt") {
			t.Fatalf("%s over a flipped entry = %q, want -ERR naming data corruption", cmd, reply)
		}
	}
	if _, _, fb := srv.ReadPathStats(); fb != fallbacks+2 {
		t.Fatalf("read fallbacks rose by %d, want 2: each damaged read is judged by the locked walk", fb-fallbacks)
	}
	var sb strings.Builder
	if err := srv.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "server_corruption_errors_total 2\n") {
		t.Fatalf("server_corruption_errors_total is not 2:\n%s", sb.String())
	}
	// A key in another chain still reads back.
	mustReply(t, cl, fmt.Sprintf("GET %d", other), ":1")
}

// TestCutCommitIsNeverServed parks a reader on a shard's lock while that
// shard's commit is cut by power loss. The cut transaction's in-place
// stores stay in live memory (its rollback cannot run on a dead device),
// so a read that walks them after the lock is released would answer a
// value recovery then rolls back. The reader must be refused instead, and
// recovery must bring back the last committed value.
func TestCutCommitIsNeverServed(t *testing.T) {
	const n = 2 // a second shard keeps the server, and the reader's connection, up
	pools := newShardPools(t, n, 16<<20)
	srv, addr := startShardedServer(t, pools, server.Options{})
	key := keyOnShard(0, n, 1)
	dev := pools[0].Device()

	cl := dial(t, addr)
	defer cl.close()
	mustReply(t, cl, fmt.Sprintf("SET %d 100", key), "+OK")
	// A clean overwrite's op sequence names the cut: the batch's first
	// user-data flush, by which point its in-place store has landed.
	var dataFlush []bool // per injection point: a user-data flush?
	var opsMu sync.Mutex
	dev.SetOpHook(func(op pmem.Op, sc pmem.Scope, n uint64) {
		opsMu.Lock()
		defer opsMu.Unlock()
		if op != pmem.OpFlush {
			dataFlush = append(dataFlush, false)
			return
		}
		for ; n > 0; n-- { // a flush passes the injector once per line
			dataFlush = append(dataFlush, sc == pmem.ScopeUserData)
		}
	})
	mustReply(t, cl, fmt.Sprintf("SET %d 150", key), "+OK")
	dev.SetOpHook(nil)
	cut := slices.Index(dataFlush, true) + 1
	t.Logf("cutting the next overwrite at device op %d of %d", cut, len(dataFlush))
	if cut == 0 {
		t.Fatalf("a clean overwrite made no user-data flush in %d ops", len(dataFlush))
	}

	at, release := make(chan struct{}), make(chan struct{})
	var count int
	dev.SetFaultInjector(func(pmem.Op) bool {
		if count++; count != cut {
			return false
		}
		close(at)
		<-release
		return true
	})
	wrote := make(chan string, 1)
	go func() {
		w := dial(t, addr)
		defer w.close()
		rep, _ := w.cmd(fmt.Sprintf("SET %d 200", key))
		wrote <- rep
	}()
	<-at
	_, _, fb0 := srv.ReadPathStats()
	read := make(chan string, 1)
	go func() {
		r := dial(t, addr)
		defer r.close()
		rep, err := r.cmd(fmt.Sprintf("GET %d", key))
		if err != nil {
			rep = err.Error()
		}
		read <- rep
	}()
	// The reader's brackets all see the commit in flight, so it falls back
	// to the read lock and parks there.
	for {
		if _, _, fb := srv.ReadPathStats(); fb > fb0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	got := <-read
	dev.SetFaultInjector(nil)
	if !strings.HasPrefix(got, "-") {
		t.Errorf("GET %d during the cut answered %q: it must be refused, never served from the cut batch", key, got)
	}
	if rep := <-wrote; rep == "+OK" {
		t.Fatalf("the cut SET was acknowledged")
	}

	_ = srv.Close()
	devs := make([]*pmem.Device, n)
	for i, p := range pools {
		devs[i] = p.Device()
		devs[i].Crash()
	}
	rpools, errs := server.AttachShards(devs)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	srv2, addr2 := startShardedServer(t, rpools, server.Options{})
	defer srv2.Close()
	c2 := dial(t, addr2)
	defer c2.close()
	mustReply(t, c2, fmt.Sprintf("GET %d", key), ":150")
}

// TestCommitPanicHaltsOnlyItsShard plants a panic that is not a power cut
// (a bug or damage panic) in a shard's commit. It must halt that shard
// alone, the way a cut does: the SET and later reads of the shard's keys
// are refused, while the other shard, the connection and the process
// keep serving.
func TestCommitPanicHaltsOnlyItsShard(t *testing.T) {
	const n = 2
	pools := newShardPools(t, n, 16<<20)
	srv, addr := startShardedServer(t, pools, server.Options{})
	defer srv.Close()
	k0, k1 := keyOnShard(0, n, 1), keyOnShard(1, n, 1)

	cl := dial(t, addr)
	defer cl.close()
	mustReply(t, cl, fmt.Sprintf("SET %d 1", k0), "+OK")
	var fired sync.Once
	dev := pools[0].Device()
	dev.SetOpHook(func(pmem.Op, pmem.Scope, uint64) {
		fired.Do(func() { panic("planted bug in the commit path") })
	})
	refused := func(cmd string) {
		t.Helper()
		if rep, err := cl.cmd(cmd); err == nil && !strings.HasPrefix(rep, "-") {
			t.Fatalf("%s on the halted shard answered %q", cmd, rep)
		}
	}
	refused(fmt.Sprintf("SET %d 2", k0))
	dev.SetOpHook(nil)
	refused(fmt.Sprintf("GET %d", k0))
	mustReply(t, cl, fmt.Sprintf("SET %d 3", k1), "+OK")
	mustReply(t, cl, fmt.Sprintf("GET %d", k1), ":3")
}
