package server_test

import (
	"fmt"
	"math/rand"
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
// uncommitted value fails the run. Both read paths are exercised: the
// lock-free seqlock path and the RLock fallback (LockedReads). The -grow
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
			srv, addr := startServer(t, p, server.Options{
				MaxBatch: 32, LockedReads: mode.locked, Buckets: mode.buckets,
			})
			defer srv.Close()

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

// TestLockFreeReadNeedsNoJournalSlot pins the seqlock path's resource
// contract: a GET serves normally while every journal slot is occupied,
// because the lock-free walk takes no transaction at all. (The locked
// fallback competes for slots and answers -BUSY — see
// TestServerBusyBackpressure.)
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
}
