package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// TestStoreShapeLeavesFileAlone: fsck reads a KV store's chain shape from
// a pool file, and the file is byte-for-byte what it was.
func TestStoreShapeLeavesFileAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.pool")
	p, err := pool.Create(path, pool.Config{Size: 8 << 20, Journals: 2})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := workloads.NewKVStore(corundumeng.Wrap(p), 64)
	if err != nil {
		t.Fatal(err)
	}
	var ops []workloads.Op
	for tenant := uint64(1); tenant <= 32; tenant++ {
		for id := uint64(0); id < 8; id++ {
			ops = append(ops, workloads.Op{Key: tenant<<40 | id, Val: id})
		}
	}
	if _, err := kv.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	st, err := storeShape(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 256 || st.Longest < 1 || st.Longest > 32 || st.MeanHit() < 1 || st.MeanHit() > float64(st.Longest) {
		t.Fatalf("storeShape = %+v (mean hit %.2f), want 256 keys in chains no longer than 32", st, st.MeanHit())
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("reading the store's shape wrote the pool file")
	}
}
