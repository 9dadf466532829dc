package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// streamHash hashes the first n request lines of every connection.
func streamHash(w *workload, seed uint64, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < numConns; c++ {
		g := newGen(w, seed, c, zipfFor(w))
		var buf []byte
		for i := 0; i < n; i++ {
			buf = w.appendRequest(buf[:0], g.next())
			h.Write(buf)
		}
	}
	return h.Sum64()
}

func TestSameSeedSameStream(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := streamHash(w, 7, 20000), streamHash(w, 7, 20000), streamHash(w, 8, 20000)
		if a != b {
			t.Errorf("%s: seed 7 generated two different request streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same request stream", w.name)
		}
	}
}

// The key sets are frozen; the hop counts below are what today's
// KVStore.Bucket makes of them and may change when the store does.
func TestKeySetShape(t *testing.T) {
	want := map[string][2]float64{
		"get_fit":    {1, 1},
		"get_large":  {32.5, 1},
		"set_churn":  {8.5, 1},
		"mixed_zipf": {128.5, 1.0 / 16},
		"mixed_open": {128.5, 1.0 / 16},
	}
	for i := range workloads {
		w := &workloads[i]
		hops, used, err := chainShape(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]float64{hops, used}; got != want[w.name] {
			t.Errorf("%s: chain_hops_per_get, buckets_used_frac = %v, want %v", w.name, got, want[w.name])
		}
		seen := make(map[uint64]bool, w.keys)
		for idx := uint64(0); idx < uint64(w.keys); idx++ {
			seen[w.keyOf(idx)] = true
		}
		if len(seen) != w.keys {
			t.Errorf("%s: %d distinct keys, want %d", w.name, len(seen), w.keys)
		}
	}
}

func TestZipfPermutationIsBijection(t *testing.T) {
	const n = 65536
	seen := make([]bool, n)
	for rank := uint64(0); rank < n; rank++ {
		idx := zipfIndex(rank, n)
		if seen[idx] {
			t.Fatalf("ranks collide on key index %d", idx)
		}
		seen[idx] = true
	}
	z := newZipf(n, zipfS)
	if z.rank(0) != 0 || z.rank(0.999999999) >= n {
		t.Fatalf("zipf ranks out of range: %d, %d", z.rank(0), z.rank(0.999999999))
	}
	// Skew: with s = 1.1 the ten hottest of 65,536 keys draw over a quarter
	// of the requests.
	if z[9] < 0.25 {
		t.Errorf("ten hottest ranks carry %.3f of the mass, want over 0.25", z[9])
	}
}

// A model server — a map — answers both connections' interleaved streams;
// every reply must pass the checks a real reply gets, and the final
// read-back must find each connection's last writes.
func TestGeneratorExpectationsHold(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		model := make(map[uint64]uint64)
		answer := func(r request) []byte {
			key := w.keyOf(r.idx)
			switch r.kind {
			case opSet:
				model[key] = r.want
				return []byte("+OK")
			case opDel:
				_, had := model[key]
				delete(model, key)
				return []byte(":" + strconv.Itoa(map[bool]int{false: 0, true: 1}[had]))
			}
			if v, ok := model[key]; ok {
				return strconv.AppendUint([]byte(":"), v, 10)
			}
			return []byte("$-1")
		}
		var conns []*conn
		for c := 0; c < numConns; c++ {
			conns = append(conns, &conn{id: c, w: w, g: newGen(w, 3, c, zipfFor(w))})
			for idx := uint64(c); idx < uint64(w.keys); idx += numConns {
				model[w.keyOf(idx)] = value(idx, 0)
			}
		}
		for burst := 0; burst < 400; burst++ {
			for _, c := range conns {
				for k := 0; k < closedDepth; k++ {
					r := c.g.next()
					c.check(r, answer(r))
				}
			}
		}
		for _, c := range conns {
			if c.failed > 0 {
				t.Errorf("%s: %d of %d model replies rejected: %v", w.name, c.failed, c.attempted, c.notes)
			}
			// What sweep would read back.
			for j, d := range c.g.dirty {
				idx := uint64(2*j + c.id)
				if d && model[w.keyOf(idx)] != value(idx, uint64(c.g.last[j])) {
					t.Errorf("%s: key index %d holds %d, generator remembers counter %d", w.name, idx, model[w.keyOf(idx)], c.g.last[j])
				}
			}
			for _, f := range c.g.live[c.g.head:] {
				if model[w.keyOf(f.idx)] != f.val {
					t.Errorf("%s: fresh key index %d holds %d, want %d", w.name, f.idx, model[w.keyOf(f.idx)], f.val)
				}
			}
		}
		if w.churn {
			if live := len(model) - w.keys; live != numConns*churnWindow/4 {
				t.Errorf("set_churn: %d fresh keys live, want %d", live, numConns*churnWindow/4)
			}
		}
	}
}

func TestCheckRejectsWrongReplies(t *testing.T) {
	c := &conn{}
	get := request{kind: opGet, idx: 5, want: value(5, 9), exact: true}
	for _, bad := range []string{"$-1", ":" + fmt.Sprint(value(6, 9)), ":" + fmt.Sprint(value(5, 8)), "-ERR x", "-BUSY y", ""} {
		c.check(get, []byte(bad))
	}
	c.check(request{kind: opSet}, []byte(":1"))
	c.check(request{kind: opDel}, []byte(":0"))
	if c.failed != 8 || c.attempted != 8 || c.busy != 1 {
		t.Fatalf("failed %d of %d (busy %d), want 8 of 8 (busy 1)", c.failed, c.attempted, c.busy)
	}
	c.check(request{kind: opGet, idx: 5}, []byte(":"+fmt.Sprint(value(5, 123))))
	c.check(get, []byte(":"+fmt.Sprint(value(5, 9))))
	if c.failed != 8 {
		t.Fatalf("correct replies rejected: %v", c.notes)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for ns := int64(1); ns <= 1_000_000; ns++ {
		h.record(ns)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if got, want := h.quantile(q), q*1e6; math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
	if lo, w := bucketBounds(128); lo != 128 || w != 2 {
		t.Errorf("bucket 128 starts at %v, width %v", lo, w)
	}
	if median([]float64{3, 1, 2}) != 2 || spread([]float64{9, 10, 11}) != 0.2 {
		t.Error("median or spread")
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in this
// package are what the program reports. They must say the same thing.
func TestContractMatchesProgram(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var contract struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", contract.RunSeconds, defaultSeconds)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the contract, %d in the program", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.name || c.Why != w.why {
			t.Errorf("workload %d: contract says %q (%q), program %q (%q)", i, c.Name, c.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200", w.name, len(w.why))
		}
		if w.refClientUS <= 0 {
			t.Errorf("%s: no reference for the host factor", w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the contract, %d in the program", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s %d: contract %+v, program %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", contract.EndToEnd, endToEnd)
	same("per_layer", contract.PerLayer, perLayer)
}

// One quick run, end to end, against a real child process.
func TestQuickRunAgainstRealServer(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a server process")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{root: root, bin: bin, seed: 11, warmup: quickWindow, window: quickWindow}
	res, err := runWorkload(context.Background(), findWorkload("get_fit"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted < int64(4096) {
		t.Fatalf("%d of %d requests failed: %v", res.failed, res.attempted, res.notes)
	}
	for _, m := range endToEnd {
		if v := res.values[m.name]; !(v > 0) {
			t.Errorf("%s = %v, want a positive value", m.name, v)
		}
	}
	if hops := res.values["workloads.chain_hops_per_get"]; hops != 1 {
		t.Errorf("chain_hops_per_get = %v on get_fit, want 1", hops)
	}
	if res.values["server.read_retries_per_kget"] != 0 {
		t.Errorf("a read-only workload saw seqlock retries")
	}
}
