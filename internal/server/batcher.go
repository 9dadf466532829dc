package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"corundum/internal/obs"
	"corundum/internal/pmem"
	"corundum/internal/repl"
	"corundum/internal/workloads"
)

// ErrServerHalted reports that the pool failed underneath the server (an
// injected crash in tests, a media failure in principle) and no further
// requests will be served.
var ErrServerHalted = errors.New("server halted: pool failure")

// HistBuckets is the number of batch-size histogram buckets: sizes
// 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, >64.
const HistBuckets = 8

// BatchStats counts what the group-commit batcher has done. All fields
// are safe to read concurrently.
type BatchStats struct {
	Batches    atomic.Uint64              // committed pool transactions
	BatchedOps atomic.Uint64              // SET/DEL ops inside them
	Hist       [HistBuckets]atomic.Uint64 // batch size histogram
}

// histBucket maps a batch size to its histogram bucket.
func histBucket(n int) int {
	idx := 0
	for m := n - 1; m > 0; m >>= 1 {
		idx++
	}
	if idx >= HistBuckets {
		idx = HistBuckets - 1
	}
	return idx
}

// HistLabel names a histogram bucket ("1", "2", "3-4", ..., ">64").
func HistLabel(bucket int) string {
	switch bucket {
	case 0:
		return "1"
	case 1:
		return "2"
	case HistBuckets - 1:
		return fmt.Sprintf(">%d", 1<<(HistBuckets-2))
	default:
		return fmt.Sprintf("%d-%d", 1<<(bucket-1)+1, 1<<bucket)
	}
}

// PhaseTimes is one mutation's group-commit latency decomposition, as
// measured by the committer. QueueNS is how long the op waited between
// submission and its batch's commit starting (the prior batch's commit,
// when one was in flight). JournalNS and FenceNS split the commit
// itself into durable-write time (device Flush wall-clock: undo-log
// entries, data stores, allocator redo) and fence-stall time (device
// Fence wall-clock); ApplyNS is the remaining commit wall-clock (store
// bookkeeping, lock hold). Commit costs are shared by the whole batch and
// reported in full to every op in it — the batch IS each op's critical
// path — so QueueNS+JournalNS+FenceNS+ApplyNS spans submission to commit
// end exactly. DoneNS is the obs.NowNS timestamp of commit end, from
// which the serving layer derives the ack phase.
type PhaseTimes struct {
	QueueNS   int64
	JournalNS int64
	FenceNS   int64
	ApplyNS   int64
	DoneNS    int64
}

// run is one submission's completion: the committer writes each op's
// result into out and counts remaining down, and the op that brings it to
// zero signals done. One atomic add per op and one channel send per run
// replace a reply channel per op, and a connection reuses its runs.
type run struct {
	out       []SubmitResult
	remaining atomic.Int64
	done      chan struct{} // buffered(1): the committer never blocks on it
}

// errUnanswered marks a result slot the committer has not filled.
var errUnanswered = errors.New("unanswered")

func newRun() *run { return &run{done: make(chan struct{}, 1)} }

// complete answers op i of the run.
func (ru *run) complete(i int, res SubmitResult) {
	ru.out[i] = res
	if ru.remaining.Add(-1) == 0 {
		ru.done <- struct{}{}
	}
}

type setReq struct {
	op      workloads.Op
	subNS   int64 // obs.NowNS at submission (the op's birth for server ops)
	barrier bool  // not a mutation: ack once every prior req has committed
	run     *run
	i       int // this req's slot in run.out
}

// Batcher is the group-commit engine: mutations from all connections are
// funneled through one committer goroutine that packs them into
// failure-atomic pool transactions of up to maxBatch operations. The
// committer never waits for stragglers: a batch is whatever queued up
// while the previous one was committing, so one transaction's undo-log
// commit (flush+fence) is shared by exactly the ops that would otherwise
// have waited behind it.
//
// The committer is the only writer to the store; lock is held exclusively
// during a commit so that readers (GET/SCAN on connection goroutines)
// never observe a half-applied batch. The storeLock fuses the shard's
// commit sequence onto that exclusive section: Lock/Unlock bump it to
// odd/even, which is the bracket the lock-free read path validates
// against (readpath.go) — the batcher publishes it simply by taking the
// lock around Apply, as it always has.
type Batcher struct {
	kv       *workloads.KVStore
	lock     *storeLock
	dev      *pmem.Device // for flush/fence wall-clock deltas; may be nil
	maxBatch int

	reqs chan setReq
	done chan struct{} // closed when the committer exits

	dead    chan struct{} // closed on pool failure
	failMu  sync.Mutex
	failErr error
	onFail  func(error) // optional: invoked once, from the committer

	stats BatchStats
	// sizes, when set, additionally records each committed batch's size
	// into the registry histogram (atomic: it is installed after the
	// committer goroutine has started).
	sizes atomic.Pointer[obs.Histogram]

	// fence, when set, vets every mutation at batch assembly — after any
	// Barrier that preceded it in the queue, before the op can reach the
	// store. A non-nil return refuses the op with that error (the rest of
	// the batch still commits). The server keeps every shard's ownership
	// vet here (installOwnershipVet) so no write lands on a shard that does
	// not own its key — mid-move or after the move committed; RESTORE
	// swaps in a refuse-everything vet for its duration.
	fence atomic.Pointer[func(workloads.Op) error]
	// stream, when attached, is the server's commit-ordered change stream
	// (replication source, BACKUP): each batch then commits through
	// changeStream.commit instead of the store's plain Apply.
	stream atomic.Pointer[changeStream]
}

// changeStream is one batcher's attachment to the server's repl.Log, the
// single subscription point for anything that needs the commits of every
// shard in one order. A batch reserves the next stream sequence, commits,
// and publishes its ops as that sequence's frame, all inside the store
// lock: per shard, sequence order is commit order, and a batch a store
// walk can see has already reserved its sequence. A commit that failed
// cleanly cancels its sequence (the stream stays dense); one cut short by
// a power failure ends the stream.
type changeStream struct {
	log   *repl.Log
	epoch *atomic.Uint64 // the server's replication epoch, stamped on every frame
	shard int
	// durable is set on a replication source: the sequence rides the
	// batch's own transaction into the shard's cursor slot (no extra
	// fence), which is what lets a restarted source continue the stream.
	// A stream attached for a local subscriber only leaves no cursor.
	durable bool
}

func (cs *changeStream) commit(kv *workloads.KVStore, ops []workloads.Op) (res []bool, err error) {
	seq := cs.log.Reserve()
	epoch := cs.epoch.Load()
	defer func() {
		if r := recover(); r != nil {
			// Injected crash (power cut): the batch may or may not be
			// durable, so its sequence can be neither published nor
			// gap-filled — a gap says "nothing happened", and a replica
			// that advanced over it would resume past a batch the
			// rebooted node does hold. The stream ends here instead;
			// replicas are left at or below seq-1 and the reboot's
			// handshake resumes or resyncs them by the durable cursors.
			cs.log.Close()
			panic(r)
		}
	}()
	if cs.durable {
		res, err = kv.ApplyWithCursor(ops, epoch, seq)
	} else {
		res, err = kv.Apply(ops)
	}
	if err != nil {
		cs.log.Cancel(epoch, seq)
		return res, err
	}
	cs.log.Publish(repl.Frame{Epoch: epoch, Seq: seq, Shard: cs.shard, Ops: ops})
	return res, nil
}

func newBatcher(kv *workloads.KVStore, lock *storeLock, dev *pmem.Device, maxBatch int, onFail func(error)) *Batcher {
	b := &Batcher{
		kv:       kv,
		lock:     lock,
		dev:      dev,
		maxBatch: maxBatch,
		// The queue is where batches form: it must hold at least the next
		// full batch while the current one commits; 4x keeps submitters
		// from blocking on enqueue behind a slow commit.
		reqs:   make(chan setReq, 4*maxBatch),
		done:   make(chan struct{}),
		dead:   make(chan struct{}),
		onFail: onFail,
	}
	go b.run()
	return b
}

// SubmitResult is one mutation's group-commit outcome. For deletes,
// Removed reports whether the key existed. Phases carries the latency
// decomposition of a successful commit (zero on failure).
type SubmitResult struct {
	Removed bool
	Err     error
	Phases  PhaseTimes
}

// Submit enqueues one mutation and blocks until the transaction holding
// it has durably committed (the group-commit ack) or failed. For deletes
// the bool reports whether the key existed.
func (b *Batcher) Submit(op workloads.Op) (bool, error) {
	res := b.SubmitMany([]workloads.Op{op})
	return res[0].Removed, res[0].Err
}

// SubmitMany enqueues a run of mutations (a pipelining connection's
// backlog) and blocks until each has committed or failed, preserving
// order. Submitting a run instead of one op at a time is what lets a
// single connection fill a group-commit batch; the committer may still
// split a run across transactions or merge runs from many connections.
func (b *Batcher) SubmitMany(ops []workloads.Op) []SubmitResult {
	return b.SubmitManyTimed(ops, nil)
}

// SubmitManyTimed is SubmitMany with per-op submission timestamps
// (obs.NowNS values, e.g. each op's arrival) so queue wait is measured
// from when the op actually arrived rather than from this call. A nil
// startNS stamps every op with now. The whole run shares one completion:
// the committer fills a results slice and the last answer wakes the
// caller once.
func (b *Batcher) SubmitManyTimed(ops []workloads.Op, startNS []int64) []SubmitResult {
	ru := newRun()
	b.enqueue(ru, ops, startNS)
	b.wait(ru)
	return ru.out
}

// enqueue hands ops to the committer as one run, answered in ru.out; wait
// blocks until every answer is in. Splitting the two lets one connection
// enqueue its runs to several shards before waiting on any of them.
func (b *Batcher) enqueue(ru *run, ops []workloads.Op, startNS []int64) {
	if cap(ru.out) < len(ops) {
		ru.out = make([]SubmitResult, len(ops))
	}
	ru.out = ru.out[:len(ops)]
	for i := range ru.out {
		ru.out[i] = SubmitResult{Err: errUnanswered}
	}
	ru.remaining.Store(int64(len(ops)))
	var now int64
	if startNS == nil {
		now = obs.NowNS()
	}
	for i, op := range ops {
		sub := now
		if startNS != nil {
			sub = startNS[i]
		}
		req := setReq{op: op, subNS: sub, run: ru, i: i}
		select {
		case b.reqs <- req: // the queue has room: no need to watch for death
			continue
		default:
		}
		select {
		case b.reqs <- req:
		case <-b.dead:
			// The rest never reach the committer: answer them here.
			for j := i; j < len(ops); j++ {
				ru.out[j] = SubmitResult{Err: b.failure()}
			}
			if ru.remaining.Add(int64(i-len(ops))) == 0 {
				ru.done <- struct{}{}
			}
			return
		}
	}
}

func (b *Batcher) wait(ru *run) {
	if len(ru.out) == 0 {
		return
	}
	select {
	case <-ru.done:
		return
	case <-b.dead:
	}
	// The committer is dead or dying: it finishes the batch in hand and
	// exits, and an op it never took is never answered. Any op of this run
	// still unanswered is queued or in that batch, so the committer does
	// exit. An op that did not commit gets no ack: it is either entirely
	// absent or (crash after the commit point) entirely present — the
	// all-or-nothing contract for unacknowledged writes.
	select {
	case <-ru.done:
		return
	case <-b.done:
	}
	select {
	case <-ru.done: // a last answer raced the exit
	default:
	}
	for i := range ru.out {
		if ru.out[i].Err == errUnanswered {
			ru.out[i] = SubmitResult{Err: b.failure()}
		}
	}
}

// Stats exposes the batch counters.
func (b *Batcher) Stats() *BatchStats { return &b.stats }

// SetFence installs (or, with nil, removes) the mutation vet run at
// batch assembly. Ops the fence refuses are answered with its error
// without touching the store.
func (b *Batcher) SetFence(fn func(workloads.Op) error) {
	if fn == nil {
		b.fence.Store(nil)
		return
	}
	b.fence.Store(&fn)
}

// Barrier blocks until every mutation submitted before it has been
// durably committed (or refused): the committer drains the FIFO queue up
// to the barrier and commits the batch it lands in first. The migration
// engine barriers a shard after publishing a fence so that the batch
// scan sees every pre-fence write.
func (b *Batcher) Barrier() error {
	ru := newRun()
	ru.out = append(ru.out, SubmitResult{Err: errUnanswered})
	ru.remaining.Store(1)
	select {
	case b.reqs <- setReq{barrier: true, subNS: obs.NowNS(), run: ru}:
	case <-b.dead:
		return b.failure()
	}
	b.wait(ru)
	return ru.out[0].Err
}

// Stop shuts the committer down after draining queued requests. The
// caller must guarantee no Submit is concurrent with or after Stop.
func (b *Batcher) Stop() {
	close(b.reqs)
	<-b.done
}

// failed reports the batcher's terminal error once the committer is
// dead, nil while it is still accepting work.
func (b *Batcher) failed() error {
	select {
	case <-b.dead:
		return b.failure()
	default:
		return nil
	}
}

func (b *Batcher) failure() error {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	if b.failErr == nil {
		return ErrServerHalted
	}
	return b.failErr
}

func (b *Batcher) fail(err error) {
	b.failMu.Lock()
	already := b.failErr != nil
	if !already {
		b.failErr = err
	}
	b.failMu.Unlock()
	if !already {
		close(b.dead)
		if b.onFail != nil {
			b.onFail(err)
		}
	}
}

func (b *Batcher) run() {
	defer close(b.done)
	batch := make([]setReq, 0, b.maxBatch) // reused: every op is answered before the next batch forms
	for {
		first, ok := <-b.reqs
		if !ok {
			return
		}
		if first.barrier {
			// FIFO means everything before this barrier was already
			// assembled into earlier batches and committed (run() only
			// returns to the channel after its commit completes).
			first.run.complete(first.i, SubmitResult{})
			continue
		}
		// Natural batching: take what is already queued, never wait for
		// more. Requests that arrive while this batch commits form the
		// next one, so a busy committer fills its batches from the backlog
		// and an idle one commits a lone op at once.
		batch = append(batch[:0], first)
		var barriers []setReq
	collect:
		for len(batch) < b.maxBatch {
			select {
			case r, ok := <-b.reqs:
				if !ok {
					break collect
				}
				if r.barrier {
					// Commit what is collected, then ack: the barrier's
					// contract is "everything before me is durable".
					barriers = append(barriers, r)
					break collect
				}
				batch = append(batch, r)
			default:
				break collect
			}
		}

		// Vet the batch against the admission fence, if one is installed:
		// refused ops are answered here and never reach the store; the
		// rest of the batch commits as usual.
		if fp := b.fence.Load(); fp != nil {
			kept := batch[:0]
			for _, r := range batch {
				if ferr := (*fp)(r.op); ferr != nil {
					r.run.complete(r.i, SubmitResult{Err: ferr})
					continue
				}
				kept = append(kept, r)
			}
			batch = kept
		}
		if len(batch) == 0 {
			for _, br := range barriers {
				br.run.complete(br.i, SubmitResult{})
			}
			continue
		}

		ops := make([]workloads.Op, len(batch))
		for i, r := range batch {
			ops[i] = r.op
		}
		// Bracket the commit with device-counter snapshots: the flush/fence
		// wall-clock delta splits commit time into durable-write and
		// fence-stall phases. The committer is the only writer on this
		// shard's device and readers never flush, so the delta is this
		// batch's own persistence cost.
		commitStart := obs.NowNS()
		var st0 pmem.Stats
		if b.dev != nil {
			st0 = b.dev.Stats()
		}
		res, err := b.commit(ops)
		commitEnd := obs.NowNS()
		var ph PhaseTimes
		ph.DoneNS = commitEnd
		if b.dev != nil {
			st1 := b.dev.Stats()
			ph.JournalNS = int64(st1.FlushNanos - st0.FlushNanos)
			ph.FenceNS = int64(st1.FenceNanos - st0.FenceNanos)
		}
		ph.ApplyNS = commitEnd - commitStart - ph.JournalNS - ph.FenceNS
		if ph.ApplyNS < 0 {
			ph.ApplyNS = 0
		}
		if err == nil {
			// Counted before acked: whoever holds an ack sees its batch in
			// the counters.
			b.stats.Batches.Add(1)
			b.stats.BatchedOps.Add(uint64(len(batch)))
			b.stats.Hist[histBucket(len(batch))].Add(1)
			if h := b.sizes.Load(); h != nil {
				h.Observe(float64(len(batch)))
			}
		}
		for i, r := range batch {
			rep := SubmitResult{Err: err}
			if err == nil {
				rep.Removed = res[i]
				rep.Phases = ph
				rep.Phases.QueueNS = max(0, commitStart-r.subNS)
			}
			r.run.complete(r.i, rep)
		}
		for _, br := range barriers {
			br.run.complete(br.i, SubmitResult{Err: err})
		}
		select {
		case <-b.dead:
			// The pool is gone; queued Submits are unblocked by b.dead.
			return
		default:
		}
	}
}

// commit applies one batch in a single failure-atomic transaction. A
// panic out of the pool (the emulated device's injected crash, which
// models power failure) is converted into a permanent server halt: real
// power loss would kill the process, and the recover here is what lets
// in-process crash tests observe the post-crash protocol behaviour.
func (b *Batcher) commit(ops []workloads.Op) (res []bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrServerHalted, r)
			b.fail(err)
		}
	}()
	b.lock.Lock()
	defer b.lock.Unlock()
	if cs := b.stream.Load(); cs != nil {
		return cs.commit(b.kv, ops)
	}
	return b.kv.Apply(ops)
}
