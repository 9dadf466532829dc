package main

import (
	"math"
	"sort"
	"strconv"
)

// Request kinds a workload generates.
const (
	opGet byte = iota
	opSet
	opDel
)

// Load shape shared by every workload (see README.md, "Run shape").
const (
	numConns     = 2    // connections, one goroutine each
	closedDepth  = 32   // requests per closed-loop burst: MaxBatch/2, so a pure-mutation burst commits at once
	preloadDepth = 64   // requests per preload burst
	churnWindow  = 1024 // set_churn: a fresh key is deleted this many ops after its insert
	valueShift   = 24   // val = keyIndex<<24 | counter

	openPeriodNS = 5_000_000 // mixed_open: each connection issues a burst every 5 ms ...
	openBurst    = 10        // ... of 10 requests: 2 conns x 200 ticks/s x 10 = 4,000 ops/s
	openSpinNS   = 1_000_000 // sleep to within 1 ms of a tick, yield for the rest

	zipfS = 1.1
	// zipfMul scatters zipf ranks over key indexes: odd, so multiplication
	// mod a power of two is a bijection.
	zipfMul = 0x9E3779B1
)

// workload is one named traffic mix. Names are final: later issues cite them.
type workload struct {
	name   string
	why    string
	open   bool // open loop at a fixed rate; otherwise closed loop
	keys   int  // preloaded key indexes 0..keys-1
	tenant bool // keys are (tenant+1)<<40 | id instead of sequential ids
	getPct int  // share of GETs; the rest are SET overwrites
	zipf   bool // zipfian key choice; otherwise uniform
	churn  bool // set_churn's fixed overwrite/insert/overwrite/delete pattern
	// hostBound says the run's wall-clock is CPU time — nothing in a burst's
	// path sleeps — so throughput and latency move with the host's speed
	// and are reported at the reference host's. The mixed workloads wait on
	// the batcher's straggler timer (and mixed_open on its schedule), which
	// a slow host does not stretch.
	hostBound bool
	// refClientUS is the generator's CPU per operation on the reference
	// host, in microseconds: the median of 20 runs on the host the benchmark
	// was written on. A run's host factor is its own figure over this one.
	refClientUS float64
}

var workloads = []workload{
	{name: "get_fit", keys: 4096, getPct: 100, hostBound: true, refClientUS: 0.743,
		why: "100% GET over 4,096 sequential ids (load factor 1): one hop, so parse, conn loop, reply and syscalls do the work; bypass for store/journal/alloc changes"},
	{name: "get_large", keys: 262144, getPct: 100, hostBound: true, refClientUS: 1.22,
		why: "100% GET over 262,144 sequential ids (64x the directory): the chain walk and per-hop CRC do the work; growth and per-hop cost must show here"},
	{name: "set_churn", keys: 65536, churn: true, hostBound: true, refClientUS: 1.26,
		why: "100% mutations (50% overwrite, 25% insert, 25% delete, live count constant): batcher, journal, alloc claim+free and pmem do the work; reads none"},
	{name: "mixed_zipf", keys: 65536, tenant: true, getPct: 90, zipf: true, refClientUS: 2.82,
		why: "90:10 GET:SET, zipf 1.1 over 65,536 tenant-prefixed keys, closed loop: straggler wait, seqlock retries and 256-entry chains from the low-bits hash"},
	{name: "mixed_open", keys: 65536, tenant: true, getPct: 90, zipf: true, open: true, refClientUS: 85.5,
		why: "the mixed_zipf traffic offered open-loop at 4,000 ops/s, each request timed from its due instant: what a caller sees far below capacity"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// keyOf maps a key index to the wire key. Sequential ids start at 1.
func (w *workload) keyOf(idx uint64) uint64 {
	if w.tenant {
		return (idx>>8+1)<<40 | idx&0xff
	}
	return idx + 1
}

// rng is splitmix64: tiny, fast, and identical on every Go version, so a
// seed names one request stream for good.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfTable is the cumulative distribution of a zipfian over n ranks.
type zipfTable []float64

func newZipf(n int, s float64) zipfTable {
	cdf := make(zipfTable, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func (z zipfTable) rank(u float64) uint64 {
	return uint64(sort.SearchFloat64s(z, u))
}

// zipfIndex scatters a rank over n key indexes (n a power of two), so the
// hot keys are not the low ids.
func zipfIndex(rank, n uint64) uint64 { return rank * zipfMul & (n - 1) }

// request is one generated request and what its reply must be.
type request struct {
	kind byte
	idx  uint64 // key index
	// want is the exact value a SET writes or a GET must read; for a GET of
	// a key another connection writes, only the key index in it is checked.
	want  uint64
	exact bool
}

// fresh is a set_churn key a connection inserted and has not yet deleted.
type fresh struct{ idx, val uint64 }

// gen produces one connection's request stream. It is a pure function of
// (workload, seed, conn): the server's replies never feed back into it.
type gen struct {
	w       *workload
	conn    uint64
	r       rng
	zipf    zipfTable
	n       uint64 // requests generated
	counter uint64 // writes generated; the low bits of every value
	// last[i] is the counter of this connection's latest write to key index
	// 2*i+conn: connection c writes only key indexes = c (mod 2).
	last  []uint32
	dirty []bool  // keys written since preload, for the final read-back
	live  []fresh // set_churn: fresh keys inserted, oldest first
	head  int
}

func newGen(w *workload, seed uint64, conn int, zipf zipfTable) *gen {
	g := &gen{w: w, conn: uint64(conn), zipf: zipf}
	g.r = rng(seed*0x9E3779B97F4A7C15 ^ uint64(conn+1)*0xD1B54A32D192ED03 ^ hashName(w.name))
	g.last = make([]uint32, w.keys/numConns)
	g.dirty = make([]bool, w.keys/numConns)
	return g
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func value(idx, counter uint64) uint64 { return idx<<valueShift | counter&(1<<valueShift-1) }

// own forces idx onto this connection's parity.
func (g *gen) own(idx uint64) uint64 { return idx&^1 | g.conn }

func (g *gen) pick() uint64 {
	if g.zipf != nil {
		return zipfIndex(g.zipf.rank(g.r.float()), uint64(g.w.keys))
	}
	return g.r.next() % uint64(g.w.keys)
}

func (g *gen) write(idx uint64) request {
	g.counter++
	g.last[idx>>1] = uint32(g.counter)
	g.dirty[idx>>1] = true
	return request{kind: opSet, idx: idx, want: value(idx, g.counter), exact: true}
}

func (g *gen) next() request {
	i := g.n
	g.n++
	if g.w.churn {
		// overwrite, insert, overwrite, delete: exactly 50/25/25, with the
		// delete aimed at the key inserted churnWindow ops earlier.
		switch i % 4 {
		case 1:
			idx := uint64(g.w.keys) + 2*(i/4) + g.conn
			g.counter++
			f := fresh{idx, value(idx, g.counter)}
			g.live = append(g.live, f)
			return request{kind: opSet, idx: idx, want: f.val, exact: true}
		case 3:
			if len(g.live)-g.head > churnWindow/4 {
				f := g.live[g.head]
				g.head++
				if g.head > 4096 { // drop the consumed prefix now and then
					g.live = append(g.live[:0], g.live[g.head:]...)
					g.head = 0
				}
				return request{kind: opDel, idx: f.idx}
			}
		}
		return g.write(g.own(g.pick()))
	}
	if int(g.r.next()%100) < g.w.getPct {
		idx := g.pick()
		if idx&1 == g.conn {
			return request{kind: opGet, idx: idx, want: value(idx, uint64(g.last[idx>>1])), exact: true}
		}
		return request{kind: opGet, idx: idx}
	}
	return g.write(g.own(g.pick()))
}

// appendRequest appends r's wire form.
func (w *workload) appendRequest(buf []byte, r request) []byte {
	switch r.kind {
	case opGet:
		buf = append(buf, "GET "...)
	case opSet:
		buf = append(buf, "SET "...)
	default:
		buf = append(buf, "DEL "...)
	}
	buf = strconv.AppendUint(buf, w.keyOf(r.idx), 10)
	if r.kind == opSet {
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, r.want, 10)
	}
	return append(buf, '\n')
}
