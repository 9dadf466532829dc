package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/baselines/engine"
	"corundum/internal/journal"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
	kvs "corundum/internal/workloads"
)

// The layer suite: a single goroutine calls each layer's exported entry
// points in timed loops against an in-memory pool of the server's default
// geometry. Every number is ns (and allocations) per call; a span is
// recorded in memory around every call of the second, traced loop, and the
// spans are written as Chrome-trace JSON when the suite ends.
const (
	poolSize   = 256 << 20 // corundum-server's default -size
	dirBuckets = 4096      // its default -buckets
	pickCount  = 4096      // keys each store benchmark cycles through
	spanCap    = 1 << 16   // most calls one benchmark's traced loop makes
	spanKeep   = 256       // spans per benchmark written to the trace file
	scratchLen = 64 << 10  // pool bytes the raw journal/device benchmarks may scribble on
)

// span is one traced call: the benchmark's span is its parent, op its
// index within the benchmark.
type span struct {
	name       string
	start, end time.Duration // since the suite began
	parent     string
	op         int
}

// bench is one timed entry point.
type bench struct {
	name  string      // the metric its ns per operation is reported as ("" for helpers)
	per   int         // operations per call: a b32 call is 32
	call  func(i int) // i counts this benchmark's calls from 0, across both loops
	limit func() int  // most calls it can make in all (a delete can only follow an insert)
	dev   *pmem.Device
}

// measured is what one benchmark's two loops found, per operation.
type measured struct {
	ns, allocs              float64
	writes, flushes, fences float64 // device operations inside one operation
}

// suite runs benchmarks within a time budget and keeps their spans.
type suite struct {
	ctx      context.Context
	began    time.Time
	budget   time.Duration // per loop
	spans    []span
	plainNS  float64 // what the traced loops' calls cost untraced
	tracedNS float64 // what they cost traced
	err      error
}

// sink keeps the timed calls' results alive, so the compiler cannot drop
// the calls.
var sink uint64

func (s *suite) fail(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// run times b untraced, then traced, and returns the untraced cost.
func (s *suite) run(b bench) measured {
	if s.err != nil {
		return measured{}
	}
	if err := s.ctx.Err(); err != nil {
		s.fail(err)
		return measured{}
	}
	left := func(i int) int {
		if b.limit == nil {
			return 1 << 40
		}
		return b.limit() - i
	}
	i := 0
	// One call warms caches and sizes the chunks between clock reads.
	t := time.Now()
	b.call(i)
	i++
	chunk := int(max(1, min(4096, 100*time.Microsecond/max(1, time.Since(t)))))

	// Untraced loop. It takes at most half of what the benchmark can still
	// do, so the traced loop has calls left.
	var ms0, ms1 runtime.MemStats
	var d0 pmem.Stats
	if b.dev != nil {
		d0 = b.dev.Stats()
	}
	runtime.ReadMemStats(&ms0)
	calls, room := 0, left(i)/2
	t = time.Now()
	for time.Since(t) < s.budget && calls < room {
		for k := 0; k < chunk && calls < room; k++ {
			b.call(i)
			i++
			calls++
		}
	}
	plain := time.Since(t)
	runtime.ReadMemStats(&ms1)
	if calls == 0 {
		s.fail(fmt.Errorf("layer suite: %s had no calls left to time", b.name))
		return measured{}
	}
	ops := float64(calls * b.per)
	m := measured{ns: float64(plain) / ops, allocs: float64(ms1.Mallocs-ms0.Mallocs) / ops}
	if b.dev != nil {
		d1 := b.dev.Stats()
		m.writes = float64(d1.Writes-d0.Writes) / ops
		m.flushes = float64(d1.Flushes-d0.Flushes) / ops
		m.fences = float64(d1.Fences-d0.Fences) / ops
	}

	// Traced loop: a span around every call.
	name := b.name
	if name == "" {
		name = "helper"
	}
	n := min(calls, spanCap, left(i))
	parent := "suite/" + name
	outer := time.Since(s.began)
	first := len(s.spans)
	for k := 0; k < n; k++ {
		start := time.Since(s.began)
		b.call(i)
		s.spans = append(s.spans, span{name: name, start: start, end: time.Since(s.began), parent: parent, op: k})
		i++
	}
	end := time.Since(s.began)
	s.plainNS += m.ns * float64(n*b.per)
	s.tracedNS += float64(end - outer)
	// Keep a sample of the per-call spans, under the benchmark's own span.
	if n > spanKeep {
		s.spans = s.spans[:first+spanKeep]
	}
	s.spans = append(s.spans, span{name: parent, start: outer, end: end, parent: "suite", op: n})
	return m
}

// writeTrace writes the spans as Chrome trace-event JSON.
func (s *suite) writeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	events := []event{{Name: "suite", Ph: "X", TS: 0, Dur: us(time.Since(s.began)), PID: 1, TID: 1, Args: map[string]any{}}}
	for _, sp := range s.spans {
		events = append(events, event{Name: sp.name, Ph: "X", TS: us(sp.start), Dur: us(sp.end - sp.start),
			PID: 1, TID: 1, Args: map[string]any{"parent": sp.parent, "op": sp.op}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// store is an in-memory pool holding one workload's key set.
type store struct {
	w     *workload
	p     *pool.Pool
	ep    engine.Pool
	kv    *kvs.KVStore
	picks []uint64 // key indexes the benchmarks cycle through
}

func newStore(w *workload, seed uint64) (*store, error) {
	p, err := pool.Create("", pool.Config{Size: poolSize, Mem: pmem.Options{Profile: pmem.NoDelay}})
	if err != nil {
		return nil, err
	}
	st := &store{w: w, p: p, ep: corundumeng.Wrap(p)}
	if st.kv, err = kvs.NewKVStore(st.ep, dirBuckets); err != nil {
		return nil, err
	}
	ops := make([]kvs.Op, 0, preloadDepth)
	for idx := uint64(0); idx < uint64(w.keys); idx++ {
		ops = append(ops, kvs.Op{Key: w.keyOf(idx), Val: value(idx, 0)})
		if len(ops) == cap(ops) || idx == uint64(w.keys)-1 {
			if _, err := st.kv.Apply(ops); err != nil {
				return nil, err
			}
			ops = ops[:0]
		}
	}
	r := rng(seed ^ hashName(w.name))
	for i := 0; i < pickCount; i++ {
		st.picks = append(st.picks, r.next()%uint64(w.keys))
	}
	return st, nil
}

func (st *store) key(i int) uint64 { return st.w.keyOf(st.picks[i%pickCount]) }

// getView times the lock-free read the server's GET uses.
func (s *suite) getView(st *store, metric string) measured {
	v, err := st.p.ReadView()
	if err != nil {
		s.fail(err)
		return measured{}
	}
	return s.run(bench{name: metric, per: 1, call: func(i int) {
		val, found, err := st.kv.GetView(v, st.key(i))
		if err != nil || !found {
			s.fail(fmt.Errorf("%s: key %d: found %v, err %v", metric, st.key(i), found, err))
		}
		sink += val
	}})
}

// applyBenches times KVStore.Apply, the batcher's commit body, on st.
func (s *suite) applyBenches(st *store, out map[string]measured) {
	dev := st.p.Device()
	batch := func(i, n int, fresh bool, del bool) []kvs.Op {
		ops := make([]kvs.Op, n)
		for j := range ops {
			idx := st.picks[(i*n+j)%pickCount]
			if fresh {
				idx = uint64(st.w.keys + i*n + j)
			}
			ops[j] = kvs.Op{Del: del, Key: st.w.keyOf(idx), Val: value(idx, uint64(i))}
		}
		return ops
	}
	apply := func(ops []kvs.Op) {
		if _, err := st.kv.Apply(ops); err != nil {
			s.fail(err)
		}
	}
	out["workloads.apply_ns.overwrite_b1"] = s.run(bench{name: "workloads.apply_ns.overwrite_b1", per: 1, dev: dev,
		call: func(i int) { apply(batch(i, 1, false, false)) }})
	out["workloads.apply_ns.overwrite_b32"] = s.run(bench{name: "workloads.apply_ns.overwrite_b32", per: closedDepth, dev: dev,
		call: func(i int) { apply(batch(i, closedDepth, false, false)) }})
	inserted := 0
	out["workloads.apply_ns.insert_b32"] = s.run(bench{name: "workloads.apply_ns.insert_b32", per: closedDepth, dev: dev,
		call: func(i int) { apply(batch(i, closedDepth, true, false)); inserted = i + 1 }})
	out["workloads.apply_ns.delete_b32"] = s.run(bench{name: "workloads.apply_ns.delete_b32", per: closedDepth, dev: dev,
		limit: func() int { return inserted },
		call:  func(i int) { apply(batch(i, closedDepth, true, true)) }})
}

// batcherBenches times a full group-commit round trip through a server
// built on st's pool: b1 waits out the straggler timer, b32 commits at once.
func (s *suite) batcherBenches(st *store, out map[string]measured) {
	srv, err := server.New(st.p, server.Options{})
	if err != nil {
		s.fail(err)
		return
	}
	defer srv.Close()
	for _, n := range []int{1, closedDepth} {
		name := fmt.Sprintf("server.batcher_rtt_us.b%d", n)
		out[name] = s.run(bench{name: name, per: 1, call: func(i int) {
			ops := make([]kvs.Op, n)
			for j := range ops {
				idx := st.picks[(i*n+j)%pickCount]
				ops[j] = kvs.Op{Key: st.w.keyOf(idx), Val: value(idx, uint64(i))}
			}
			for _, r := range srv.Batcher().SubmitMany(ops) {
				s.fail(r.Err)
			}
		}})
	}
}

// poolBenches times the engine adapter, pool, journal and allocator entry
// points on st's pool, scribbling only on a scratch block it allocates.
func (s *suite) poolBenches(st *store, out map[string]measured) {
	dev := st.p.Device()
	var scratch uint64
	s.fail(st.ep.Tx(func(tx engine.Tx) (err error) {
		scratch, err = tx.Alloc(scratchLen)
		return err
	}))
	if s.err != nil {
		return
	}
	v, err := st.p.ReadView()
	if err != nil {
		s.fail(err)
		return
	}
	const words = scratchLen / 8
	out["pool.view_load_ns"] = s.run(bench{name: "pool.view_load_ns", per: 1024, call: func(i int) {
		for j := 0; j < 1024; j++ {
			w, _ := v.Load(scratch + uint64(j%words)*8)
			sink += w
		}
	}})
	out["pool.tx_empty_ns"] = s.run(bench{name: "pool.tx_empty_ns", per: 1, dev: dev, call: func(i int) {
		s.fail(st.p.Transaction(func(*journal.Journal) error { return nil }))
	}})
	out["corundumeng.load_ns"] = s.run(bench{name: "corundumeng.load_ns", per: 1024, call: func(i int) {
		s.fail(st.ep.Tx(func(tx engine.Tx) error {
			for j := 0; j < 1024; j++ {
				sink += tx.Load(scratch + uint64(j%words)*8)
			}
			return nil
		}))
	}})
	// Each store hits a word the transaction has not logged yet, as the
	// store's own first-touch writes do: one undo entry per store.
	out["corundumeng.store_ns"] = s.run(bench{name: "corundumeng.store_ns", per: 64, dev: dev, call: func(i int) {
		s.fail(st.ep.Tx(func(tx engine.Tx) error {
			for j := 0; j < 64; j++ {
				if err := tx.Store(scratch+uint64(j)*64, uint64(i)); err != nil {
					return err
				}
			}
			return nil
		}))
	}})
	// The journal's commit is not exported on its own, so the two journal
	// numbers come from transactions of 1 and of 64 undo entries: the
	// marginal entry, and the fixed cost of committing a non-empty log.
	logTx := func(n int) measured {
		return s.run(bench{per: 1, dev: dev, call: func(i int) {
			s.fail(st.p.Transaction(func(j *journal.Journal) error {
				for k := 0; k < n; k++ {
					if err := j.DataLog(scratch+uint64(k)*64, 8); err != nil {
						return err
					}
				}
				return nil
			}))
		}})
	}
	tx1, tx64 := logTx(1), logTx(64)
	entry := scale(sub(tx64, tx1), 1.0/63)
	out["journal.datalog_ns"] = entry
	out["journal.commit_ns"] = sub(sub(tx1, entry), out["pool.tx_empty_ns"])

	// Allocator: 32-byte blocks through the journal, 32 to a transaction.
	var blocks [][]uint64
	out["alloc.claim_ns"] = s.run(bench{name: "alloc.claim_ns", per: closedDepth, dev: dev, call: func(i int) {
		offs := make([]uint64, 0, closedDepth)
		s.fail(st.p.Transaction(func(j *journal.Journal) error {
			for k := 0; k < closedDepth; k++ {
				off, err := j.Alloc(32)
				if err != nil {
					return err
				}
				offs = append(offs, off)
			}
			return nil
		}))
		blocks = append(blocks, offs)
	}})
	out["alloc.free_ns"] = s.run(bench{name: "alloc.free_ns", per: closedDepth, dev: dev,
		limit: func() int { return len(blocks) },
		call: func(i int) {
			s.fail(st.p.Transaction(func(j *journal.Journal) error {
				for _, off := range blocks[i] {
					if err := j.DropLog(off, 32); err != nil {
						return err
					}
				}
				return nil
			}))
		}})
}

func sub(a, b measured) measured {
	return measured{ns: max(0, a.ns-b.ns), allocs: max(0, a.allocs-b.allocs),
		writes: max(0, a.writes-b.writes), flushes: max(0, a.flushes-b.flushes), fences: max(0, a.fences-b.fences)}
}

func scale(a measured, f float64) measured {
	return measured{ns: a.ns * f, allocs: a.allocs * f, writes: a.writes * f, flushes: a.flushes * f, fences: a.fences * f}
}

// deviceBenches times the emulated device's three operations under a
// profile. Under NoDelay that is the emulator's own overhead; what a delay
// profile adds on top is the modelled part, which must never be optimised.
func (s *suite) deviceBenches(prof pmem.Profile) (write, flush, fence measured) {
	dev := pmem.New(1<<20, pmem.Options{Profile: prof})
	var word [8]byte
	off := func(i int) uint64 { return uint64(i) % (1 << 14) * pmem.CacheLineSize }
	write = s.run(bench{per: 1, call: func(i int) { dev.Write(off(i), word[:]) }})
	pair := s.run(bench{per: 1, call: func(i int) { dev.Write(off(i), word[:]); dev.Flush(off(i), 8) }})
	fence = s.run(bench{per: 1, call: func(i int) { dev.Fence() }})
	return write, sub(pair, write), fence
}

// layerSuite runs the suite for w, adds group (b) of the per-layer metrics
// and w's ledger to res, and writes the span file.
func layerSuite(ctx context.Context, w *workload, cfg runConfig, res *result) error {
	const loops = 2 * 25 // benchmarks below, two loops each
	s := &suite{ctx: ctx, began: time.Now(), budget: cfg.suite / loops}
	out := map[string]measured{}

	// Parse: the workload's own request lines.
	g := newGen(w, cfg.seed, 0, zipfFor(w))
	lines := make([][]byte, pickCount)
	for i := range lines {
		l := w.appendRequest(nil, g.next())
		lines[i] = l[:len(l)-1]
	}
	out["server.parse_ns"] = s.run(bench{name: "server.parse_ns", per: 1, call: func(i int) {
		if _, err := server.ParseCommand(lines[i%pickCount]); err != nil {
			s.fail(err)
		}
	}})

	// One store per chain shape, one at a time: each pool is 256 MiB. The
	// workload's own store also takes the write-path benchmarks; set_churn's
	// key set has no GetView metric of its own, so it gets a fourth store.
	type shape struct {
		tag  string    // suffix of its GetView metric; "" when it has none
		keys *workload // whose key set the store holds
	}
	shapes := []shape{{"lf1", findWorkload("get_fit")}, {"lf64", findWorkload("get_large")}, {"tenant", findWorkload("mixed_zipf")}}
	own := ""
	for _, sh := range shapes {
		if sh.keys.keys == w.keys && sh.keys.tenant == w.tenant {
			own = sh.tag
		}
	}
	if own == "" {
		shapes = append(shapes, shape{"", w})
	}
	for _, sh := range shapes {
		st, err := newStore(sh.keys, cfg.seed)
		if err != nil {
			return fmt.Errorf("layer suite: building the %s store: %w", sh.keys.name, err)
		}
		if sh.tag != "" {
			out["workloads.getview_ns."+sh.tag] = s.getView(st, "workloads.getview_ns."+sh.tag)
		}
		if sh.tag == "lf1" {
			out["workloads.get_locked_ns.lf1"] = s.run(bench{name: "workloads.get_locked_ns.lf1", per: 1, call: func(i int) {
				val, found, err := st.kv.Get(st.key(i))
				if err != nil || !found {
					s.fail(fmt.Errorf("get_locked: key %d: found %v, err %v", st.key(i), found, err))
				}
				sink += val
			}})
			s.poolBenches(st, out)
		}
		if sh.tag == own {
			s.applyBenches(st, out)
			s.batcherBenches(st, out)
		}
		if err := st.p.Close(); err != nil {
			s.fail(err)
		}
	}
	write, flush, fence := s.deviceBenches(pmem.NoDelay)
	_, oflush, ofence := s.deviceBenches(pmem.OptaneDC)
	out["pmem.write_ns"], out["pmem.flush_ns"], out["pmem.fence_ns"] = write, flush, fence
	out["pmem.modelled_flush_ns"] = sub(oflush, flush)
	out["pmem.modelled_fence_ns"] = sub(ofence, fence)
	if s.err != nil {
		return fmt.Errorf("layer suite: %w", s.err)
	}

	v := res.values
	for name, m := range out {
		v[name] = m.ns
	}
	v["server.batcher_rtt_us.b1"] /= 1e3
	v["server.batcher_rtt_us.b32"] /= 1e3
	v["server.parse_allocs"] = out["server.parse_ns"].allocs
	v["workloads.getview_allocs"] = out["workloads.getview_ns.lf64"].allocs
	v["trace.span_overhead_frac"] = ratio(s.tracedNS, s.plainNS) - 1
	ledger(w, res, out, own)

	path := filepath.Join(cfg.root, buildDir, fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
	if err := s.writeTrace(path); err != nil {
		return fmt.Errorf("layer suite: writing spans: %w", err)
	}
	fmt.Printf("%s: %d spans written to %s\n", w.name, len(s.spans)+1, path)
	return nil
}

func zipfFor(w *workload) zipfTable {
	if w.zipf {
		return newZipf(w.keys, zipfS)
	}
	return nil
}

// ledger prices one of w's operations layer by layer: the counts per
// operation the end-to-end run saw from outside, times the suite's ns per
// call, set against the server's CPU per operation as measured (the suite
// ran on this host, so the host factor stays out of it). What the sum does
// not reach is the front end, the scheduler and everything private.
func ledger(w *workload, res *result, out map[string]measured, own string) {
	v := res.values
	getShare := float64(w.getPct) / 100
	insShare, delShare := 0.0, 0.0
	if w.churn {
		getShare, insShare, delShare = 0, 0.25, 0.25
	}
	mutShare := 1 - getShare
	write, flush, fence := v["pmem.write_ns"], v["pmem.flush_ns"], v["pmem.fence_ns"]
	device := func(m measured) float64 { return m.writes*write + m.flushes*flush + m.fences*fence }
	// self is a layer's cost without the device operations inside it.
	self := func(name string) float64 { return max(0, out[name].ns-device(out[name])) }

	batch := max(1, v["server.mean_batch"])
	pmemUS := mutShare * (v["pmem.writes_per_mut"]*write + v["pmem.flushes_per_mut"]*flush + v["pmem.fences_per_mut"]*fence) / 1e3
	journalUS := mutShare * (v["pmem.fences_journal_per_mut"]*self("journal.datalog_ns") + self("journal.commit_ns")/batch) / 1e3
	allocUS := (insShare*self("alloc.claim_ns") + delShare*self("alloc.free_ns")) / 1e3

	// Apply's cost per operation at the batch size the run saw: a fixed
	// cost per transaction, from the b1 and b32 overwrites, plus the
	// marginal cost of each kind of operation.
	fixed := max(0, v["workloads.apply_ns.overwrite_b1"]-v["workloads.apply_ns.overwrite_b32"]) * closedDepth / (closedDepth - 1)
	at := func(kind string) float64 {
		return v["workloads.apply_ns."+kind+"_b32"] - fixed/closedDepth + fixed/batch
	}
	applyNS := at("overwrite")
	if w.churn {
		applyNS = 0.5*at("overwrite") + 0.25*at("insert") + 0.25*at("delete")
	}
	storeUS := max(0, mutShare*applyNS/1e3-journalUS-allocUS-pmemUS)
	if own != "" {
		storeUS += getShare * v["workloads.getview_ns."+own] / 1e3
	}
	v["ledger.parse_us"] = v["server.parse_ns"] / 1e3
	v["ledger.store_us"] = storeUS
	v["ledger.journal_us"] = journalUS
	v["ledger.alloc_us"] = allocUS
	v["ledger.pmem_us"] = pmemUS
	sum := v["ledger.parse_us"] + storeUS + journalUS + allocUS + pmemUS
	v["ledger.unattributed_frac"] = 1 - ratio(sum, res.serverCPU)
}

// chainShape places w's key set in a directory of the server's size with
// the store's own exported hash. hops is the mean over the key set of a
// key's position in its chain — what an average GET walks — and used the
// share of buckets holding any key.
func chainShape(w *workload) (hops, used float64, err error) {
	p, err := pool.Create("", pool.Config{Size: 16 << 20, Mem: pmem.Options{Profile: pmem.NoDelay}})
	if err != nil {
		return 0, 0, err
	}
	defer p.Close()
	kv, err := kvs.NewKVStore(corundumeng.Wrap(p), dirBuckets)
	if err != nil {
		return 0, 0, err
	}
	chain := make([]float64, kv.Buckets())
	for idx := uint64(0); idx < uint64(w.keys); idx++ {
		chain[kv.Bucket(w.keyOf(idx))]++
	}
	for _, n := range chain {
		hops += n * (n + 1) / 2
		if n > 0 {
			used++
		}
	}
	return hops / float64(w.keys), used / float64(len(chain)), nil
}
