//go:build !race

// The race detector's instrumentation allocates, so the zero-allocation
// guards build without it.

package workloads

import (
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/pool"
)

// TestApplyAllocs: committing a 64-op batch allocates nothing, whether
// it overwrites, inserts or deletes — the store, the engine adapter, the
// journal and the allocator all commit from reused scratch once it has
// grown to size. The base directory stays ahead of the keys, so no batch
// splits a bucket.
func TestApplyAllocs(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 32 << 20, Journals: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	kv, err := NewKVStore(corundumeng.Wrap(p), 4096)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 64)
	var lo, hi uint64 // keys [lo, hi) are live
	// Warm up: the journals' and the allocator's scratch grow to size.
	for range 16 {
		for i := range ops {
			ops[i] = Op{Key: hi, Val: 1}
			hi++
		}
		if _, err := kv.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		kind string
		op   func(i int) Op
	}{
		{"insert", func(int) Op { hi++; return Op{Key: hi - 1, Val: hi} }},
		{"overwrite", func(i int) Op { return Op{Key: lo + uint64(i)*37%(hi-lo), Val: uint64(i)} }},
		{"delete", func(int) Op { lo++; return Op{Del: true, Key: lo - 1} }},
	} {
		n := testing.AllocsPerRun(40, func() {
			for i := range ops {
				ops[i] = c.op(i)
			}
			res, err := kv.Apply(ops)
			if err != nil {
				t.Fatal(err)
			}
			for i, ok := range res {
				if !ok {
					t.Fatalf("%s op %d (%+v) answered false", c.kind, i, ops[i])
				}
			}
		})
		if n != 0 {
			t.Errorf("Apply of a 64-op %s batch: %v allocations, want 0", c.kind, n)
		}
	}
	if keys, buckets := kv.Shape(); keys != hi-lo || buckets != 4096 {
		t.Errorf("Shape = (%d, %d), want (%d, 4096)", keys, buckets, hi-lo)
	}
}
