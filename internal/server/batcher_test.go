package server

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/obs"
	"corundum/internal/pool"
	"corundum/internal/repl"
	"corundum/internal/workloads"
)

// batcherRig is one batcher over its own in-memory pool, with the store
// lock in the test's hands so a test can park the committer mid-commit
// and decide exactly what is queued when it resumes.
type batcherRig struct {
	b     *Batcher
	lock  *storeLock
	kv    *workloads.KVStore
	sizes *obs.Histogram // the batch-size histogram, as the server installs it
}

func newBatcherRig(t *testing.T, maxBatch int) *batcherRig {
	t.Helper()
	p, err := pool.Create("", pool.Config{Size: 16 << 20, Journals: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	kv, err := workloads.NewKVStore(corundumeng.Wrap(p), 256)
	if err != nil {
		t.Fatal(err)
	}
	r := &batcherRig{lock: new(storeLock), kv: kv}
	r.b = newBatcher(kv, r.lock, p.Device(), maxBatch, nil)
	r.sizes = obs.NewRegistry().Histogram("server_batch_size", "", nil, batchSizeBuckets)
	r.b.sizes.Store(r.sizes)
	return r
}

// batchesSized reports how many committed batches the histogram holds in
// the bucket a batch of n ops lands in.
func (r *batcherRig) batchesSized(n int) uint64 {
	return r.sizes.BucketCounts()[sort.SearchFloat64s(batchSizeBuckets, float64(n))]
}

// park submits a primer op and returns once the committer has assembled
// it into a batch of its own and is blocked taking the store lock, which
// the caller now holds. Everything enqueued from here until the returned
// release function runs waits in the queue together.
func (r *batcherRig) park(t *testing.T, primer uint64) (release func()) {
	t.Helper()
	vetted := make(chan struct{})
	r.b.SetFence(func(op workloads.Op) error {
		if op.Key == primer {
			close(vetted) // vetting follows the drain and precedes the lock
		}
		return nil
	})
	r.lock.Lock()
	primed := make(chan error, 1)
	go func() {
		_, err := r.b.Submit(workloads.Op{Key: primer, Val: 1})
		primed <- err
	}()
	<-vetted
	r.b.SetFence(nil)
	return func() {
		r.lock.Unlock()
		if err := <-primed; err != nil {
			t.Errorf("primer op: %v", err)
		}
	}
}

// waitQueued spins until n requests sit in the batcher's queue.
func (r *batcherRig) waitQueued(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(r.b.reqs) != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d requests, want %d", len(r.b.reqs), n)
		}
		runtime.Gosched()
	}
}

func (r *batcherRig) get(t *testing.T, key uint64) (uint64, bool) {
	t.Helper()
	r.lock.RLock()
	defer r.lock.RUnlock()
	v, found, err := r.kv.Get(key)
	if err != nil {
		t.Error(err) // not Fatal: barrier goroutines read through here too
	}
	return v, found
}

// TestLoneSubmitDoesNotWait: an idle committer commits a lone op at once.
// The straggler timer this replaced held every lone op for at least its
// 200µs setting (about a millisecond as delivered), so the bound below —
// a tenth of that setting, on the median of many lone submits — cannot
// pass with any wall-clock wait in the loop.
func TestLoneSubmitDoesNotWait(t *testing.T) {
	r := newBatcherRig(t, 64)
	defer r.b.Stop()
	const rounds = 201
	waits := make([]int64, rounds)
	for i := range waits {
		res := r.b.SubmitMany([]workloads.Op{{Key: uint64(i), Val: 1}})
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		waits[i] = res[0].Phases.QueueNS
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if med := waits[rounds/2]; med >= 20_000 {
		t.Errorf("median queue wait of a lone op = %dns, want < 20000ns (fastest %dns, slowest %dns)",
			med, waits[0], waits[rounds-1])
	}
	if got := r.b.Stats().Batches.Load(); got != rounds {
		t.Errorf("%d lone submits committed as %d batches", rounds, got)
	}
}

// TestQueuedOpsCommitAsOneBatch: natural batching still batches. Ops that
// arrive while a commit is in flight form the next batch — all of them,
// up to the cap, in one transaction.
func TestQueuedOpsCommitAsOneBatch(t *testing.T) {
	const maxBatch = 64
	r := newBatcherRig(t, maxBatch)
	defer r.b.Stop()
	release := r.park(t, 1<<32)

	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			if _, err := r.b.Submit(workloads.Op{Key: k, Val: k * 3}); err != nil {
				t.Errorf("Submit(%d): %v", k, err)
			}
		}(uint64(i))
	}
	r.waitQueued(t, n)
	release()
	wg.Wait()

	st := r.b.Stats()
	if b, ops := st.Batches.Load(), st.BatchedOps.Load(); b != 2 || ops != n+1 {
		t.Errorf("primer + %d queued ops committed as %d batches / %d ops, want 2 / %d", n, b, ops, n+1)
	}
	if got := r.batchesSized(n); got != 1 {
		t.Errorf("batch-size histogram has %d batches of %d, want 1", got, n)
	}
	for k := uint64(0); k < n; k++ {
		if v, found := r.get(t, k); !found || v != k*3 {
			t.Errorf("key %d = (%d, %v) after the batch", k, v, found)
		}
	}

	// A backlog deeper than the cap splits at the cap, in order.
	release = r.park(t, 2<<32)
	ops := make([]workloads.Op, maxBatch+10)
	for i := range ops {
		ops[i] = workloads.Op{Key: 1000 + uint64(i), Val: 1}
	}
	done := make(chan []SubmitResult, 1)
	go func() { done <- r.b.SubmitMany(ops) }()
	r.waitQueued(t, len(ops))
	release()
	for i, res := range <-done {
		if res.Err != nil {
			t.Fatalf("op %d: %v", i, res.Err)
		}
	}
	if full, rest := r.batchesSized(maxBatch), r.batchesSized(10); full != 1 || rest != 1 {
		t.Errorf("a %d-op backlog committed as %d full batches and %d of 10, want 1 and 1", len(ops), full, rest)
	}
}

// TestBarrierAndRefusalsInBatchAssembly: a barrier ends the batch it
// lands in and is acked only after that batch is durable; ops the
// admission vet refuses are answered with its error without touching the
// store while the rest of their batch commits; a batch refused whole
// commits nothing and still acks its barrier.
func TestBarrierAndRefusalsInBatchAssembly(t *testing.T) {
	r := newBatcherRig(t, 64)
	defer r.b.Stop()
	release := r.park(t, 1<<32)

	errRefused := errors.New("refused by the test vet")
	r.b.SetFence(func(op workloads.Op) error {
		if op.Key%10 == 7 {
			return errRefused
		}
		return nil
	})
	// The committed batches are read back from the change stream: one
	// frame per batch, in commit order.
	log := repl.NewLog(0, 64, 1<<20)
	pin := log.Pin()
	r.b.stream.Store(&changeStream{log: log, epoch: new(atomic.Uint64)})

	// Queue, in order: ops 0..9 (7 refused) | barrier | ops 10..14.
	before := make(chan []SubmitResult, 1)
	go func() {
		ops := make([]workloads.Op, 10)
		for i := range ops {
			ops[i] = workloads.Op{Key: uint64(i), Val: 100 + uint64(i)}
		}
		before <- r.b.SubmitMany(ops)
	}()
	r.waitQueued(t, 10)
	type barrierAck struct {
		err      error
		sawFirst bool // op 0 durable when the barrier returned
	}
	barrier := make(chan barrierAck, 1)
	go func() {
		err := r.b.Barrier()
		_, first := r.get(t, 0)
		barrier <- barrierAck{err: err, sawFirst: first}
	}()
	r.waitQueued(t, 11)
	after := make(chan []SubmitResult, 1)
	go func() {
		ops := make([]workloads.Op, 5)
		for i := range ops {
			ops[i] = workloads.Op{Key: 10 + uint64(i), Val: 100}
		}
		after <- r.b.SubmitMany(ops)
	}()
	r.waitQueued(t, 16)
	release()

	for i, res := range <-before {
		switch {
		case i == 7 && !errors.Is(res.Err, errRefused):
			t.Errorf("op 7 = %v, want the vet's refusal", res.Err)
		case i != 7 && res.Err != nil:
			t.Errorf("op %d: %v", i, res.Err)
		}
	}
	if ack := <-barrier; ack.err != nil || !ack.sawFirst {
		t.Errorf("barrier = %v with op 0 durable = %v, want nil with it durable", ack.err, ack.sawFirst)
	}
	for i, res := range <-after {
		if res.Err != nil {
			t.Errorf("op %d: %v", 10+i, res.Err)
		}
	}
	if _, found := r.get(t, 7); found {
		t.Error("the refused op reached the store")
	}
	frames, err := pin.Through(log.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(frames))
	for i, f := range frames {
		sizes[i] = len(f.Ops)
	}
	if want := []int{1, 9, 5}; len(sizes) != 3 || sizes[0] != want[0] || sizes[1] != want[1] || sizes[2] != want[2] {
		t.Errorf("committed batch sizes %v, want %v (primer | nine admitted ops, cut at the barrier | the five after it)", sizes, want)
	}

	// A batch refused whole: nothing commits, the barrier behind it acks.
	committed := r.b.Stats().Batches.Load()
	release = r.park(t, 2<<32)
	r.b.SetFence(func(op workloads.Op) error {
		if op.Key != 2<<32 {
			return errRefused
		}
		return nil
	})
	refused := make(chan []SubmitResult, 1)
	go func() { refused <- r.b.SubmitMany([]workloads.Op{{Key: 20, Val: 1}, {Key: 21, Val: 1}}) }()
	r.waitQueued(t, 2)
	acked := make(chan error, 1)
	go func() { acked <- r.b.Barrier() }()
	r.waitQueued(t, 3)
	release()
	for i, res := range <-refused {
		if !errors.Is(res.Err, errRefused) {
			t.Errorf("refused op %d = %v", i, res.Err)
		}
	}
	if err := <-acked; err != nil {
		t.Errorf("barrier behind a fully refused batch: %v", err)
	}
	if got := r.b.Stats().Batches.Load(); got != committed+1 {
		t.Errorf("%d batches committed around a fully refused one, want 1 (the primer)", got-committed)
	}
}

// TestStreamFramesOwnTheirOps: the committer reuses its ops buffer from
// batch to batch, while the change stream's log keeps every published
// frame. Runs committed back to back must read back from the log, frame
// after frame, as exactly the ops submitted, so a frame cannot alias the
// buffer. (The committer may split a run across batches, so the frames
// are compared as one sequence.)
func TestStreamFramesOwnTheirOps(t *testing.T) {
	r := newBatcherRig(t, 64)
	defer r.b.Stop()
	log := repl.NewLog(0, 64, 1<<20)
	pin := log.Pin()
	r.b.stream.Store(&changeStream{log: log, epoch: new(atomic.Uint64)})
	var want []workloads.Op
	for round := uint64(0); round < 8; round++ {
		ops := make([]workloads.Op, 40-5*round) // each run shorter: a stale tail would show
		for i := range ops {
			ops[i] = workloads.Op{Key: round<<16 | uint64(i), Val: round, Del: i%5 == 4}
		}
		for i, res := range r.b.SubmitMany(ops) {
			if res.Err != nil {
				t.Fatalf("round %d op %d: %v", round, i, res.Err)
			}
		}
		want = append(want, ops...)
	}
	frames, err := pin.Through(log.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 8 {
		t.Fatalf("%d frames published for 8 runs", len(frames))
	}
	var got []workloads.Op
	for _, f := range frames {
		got = append(got, f.Ops...)
	}
	if len(got) != len(want) {
		t.Fatalf("the frames hold %d ops, want the %d submitted", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("published op %d = %+v, want %+v as submitted", i, got[i], want[i])
		}
	}
}

// TestBatcherHammer races runs of submitters against barriers and ends
// with Stop: every op is acked exactly once, last writer per key wins in
// the store, and the counters add up. Run under -race.
func TestBatcherHammer(t *testing.T) {
	r := newBatcherRig(t, 16)
	const submitters, rounds = 8, 150
	var wg sync.WaitGroup
	final := make([]map[uint64]uint64, submitters)
	var total int
	var totalMu sync.Mutex
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s) + 1))
			mine := map[uint64]uint64{}
			sent := 0
			for i := 0; i < rounds; i++ {
				ops := make([]workloads.Op, 1+rng.Intn(24))
				for j := range ops {
					k := uint64(s)<<32 | uint64(rng.Intn(64))
					ops[j] = workloads.Op{Key: k, Val: rng.Uint64() | 1, Del: rng.Intn(4) == 0}
				}
				for j, res := range r.b.SubmitMany(ops) {
					if res.Err != nil {
						t.Errorf("submitter %d: %v", s, res.Err)
						return
					}
					if ops[j].Del {
						_, had := mine[ops[j].Key]
						if res.Removed != had {
							t.Errorf("submitter %d: DEL %#x removed=%v, model had=%v", s, ops[j].Key, res.Removed, had)
						}
						delete(mine, ops[j].Key)
					} else {
						mine[ops[j].Key] = ops[j].Val
					}
				}
				sent += len(ops)
			}
			final[s] = mine
			totalMu.Lock()
			total += sent
			totalMu.Unlock()
		}(s)
	}
	stopBarriers := make(chan struct{})
	var bwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		bwg.Add(1)
		go func() {
			defer bwg.Done()
			for {
				select {
				case <-stopBarriers:
					return
				default:
				}
				if err := r.b.Barrier(); err != nil {
					t.Errorf("barrier: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopBarriers)
	bwg.Wait()
	r.b.Stop()
	if t.Failed() {
		return
	}
	if got := r.b.Stats().BatchedOps.Load(); got != uint64(total) {
		t.Errorf("%d ops committed, %d acked", got, total)
	}
	for s, mine := range final {
		for k := uint64(s) << 32; k < uint64(s)<<32|64; k++ {
			want, present := mine[k]
			if v, found := r.get(t, k); found != present || (present && v != want) {
				t.Errorf("key %#x = (%d, %v), want (%d, %v)", k, v, found, want, present)
			}
		}
	}
}

// TestGroupCommitFenceBudget pins what group commit buys, in device
// fences — counters, not wall clock, so the numbers are exact. A run of
// 64 fresh-key SETs committed as one batch (plus the lone primer that
// parks the committer so the run is assembled whole) must cost under 4
// fences per op — the slab allocator's budget, ~2.1 measured — and
// strictly fewer than the same 65 ops committed one per batch (~4.2).
func TestGroupCommitFenceBudget(t *testing.T) {
	const run = 64
	ops := func(base uint64) []workloads.Op {
		out := make([]workloads.Op, run)
		for i := range out {
			out[i] = workloads.Op{Key: base + uint64(i), Val: uint64(i)}
		}
		return out
	}
	check := func(res []SubmitResult) {
		t.Helper()
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("op %d: %v", i, r.Err)
			}
		}
	}

	batched := newBatcherRig(t, run)
	before := batched.b.dev.Stats().Fences
	release := batched.park(t, 1<<40)
	done := make(chan []SubmitResult, 1)
	go func() { done <- batched.b.SubmitMany(ops(1 << 20)) }()
	batched.waitQueued(t, run)
	release()
	check(<-done)
	batchedFences := batched.b.dev.Stats().Fences - before
	if got := batched.b.Stats().Batches.Load(); got != 2 {
		t.Fatalf("committed %d batches, want 2 (primer + one run of %d)", got, run)
	}

	single := newBatcherRig(t, run)
	before = single.b.dev.Stats().Fences
	for _, op := range append(ops(1<<20), workloads.Op{Key: 1 << 40, Val: 1}) {
		check(single.b.SubmitMany([]workloads.Op{op}))
	}
	singleFences := single.b.dev.Stats().Fences - before

	perOp := float64(batchedFences) / (run + 1)
	t.Logf("fences/op: %.2f batched (%d fences), %.2f one per batch (%d fences)",
		perOp, batchedFences, float64(singleFences)/(run+1), singleFences)
	if perOp >= 4 {
		t.Errorf("batched SETs cost %.2f fences/op, budget is < 4", perOp)
	}
	if batchedFences >= singleFences {
		t.Errorf("one batch of %d used %d fences, no fewer than one per batch (%d)", run, batchedFences, singleFences)
	}
}
