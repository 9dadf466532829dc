package workloads

import (
	"errors"
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/baselines/engine"
)

// openKV builds a KVStore on a Corundum pool and loads it with keys
// 1..n (val = key*10).
func openKV(t *testing.T, n int) (engine.Pool, *KVStore) {
	t.Helper()
	p, err := corundumeng.Lib{}.Open(engine.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	kv, err := NewKVStore(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= uint64(n); k++ {
		if err := kv.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	return p, kv
}

// entryOf finds key's entry offset by walking its chain raw.
func entryOf(t *testing.T, p engine.Pool, kv *KVStore, key uint64) uint64 {
	t.Helper()
	var found uint64
	g := kv.geo.Load()
	err := p.Tx(func(tx engine.Tx) error {
		for e := tx.Load(g.slot(g.phys(key))); e != 0; e = tx.Load(e + kvNext) {
			if tx.Load(e+kvKey) == key {
				found = e
				return nil
			}
		}
		return nil
	})
	if err != nil || found == 0 {
		t.Fatalf("entry for key %d not found: %v", key, err)
	}
	return found
}

func TestKVStoreDetectsEntryCorruption(t *testing.T) {
	p, kv := openKV(t, 32)
	e := entryOf(t, p, kv, 7)
	p.Device().InjectBitFlip(e+kvVal, 5)

	if _, _, err := kv.Get(7); !errors.Is(err, ErrDataCorrupt) {
		t.Fatalf("Get over flipped value = %v, want ErrDataCorrupt", err)
	}
	if err := kv.Scan(func(_, _ uint64) bool { return true }); !errors.Is(err, ErrDataCorrupt) {
		t.Fatalf("Scan over flipped value = %v, want ErrDataCorrupt", err)
	}
	if err := kv.VerifyIntegrity(); !errors.Is(err, ErrDataCorrupt) {
		t.Fatalf("VerifyIntegrity = %v, want ErrDataCorrupt", err)
	}
	// Keys hashing to other buckets are unaffected.
	other, g := uint64(0), kv.geo.Load()
	for k := uint64(1); k <= 32; k++ {
		if g.phys(k) != g.phys(7) {
			other = k
			break
		}
	}
	if v, ok, err := kv.Get(other); err != nil || !ok || v != other*10 {
		t.Fatalf("Get(%d) = %d,%v,%v after unrelated corruption", other, v, ok, err)
	}
}

func TestKVStoreDetectsBucketSlotCorruption(t *testing.T) {
	p, kv := openKV(t, 32)
	g := kv.geo.Load()
	p.Device().InjectBitFlip(g.slot(g.phys(7)), 3)

	if _, _, err := kv.Get(7); !errors.Is(err, ErrDataCorrupt) {
		t.Fatalf("Get over flipped slot = %v, want ErrDataCorrupt", err)
	}
	if err := kv.VerifyIntegrity(); !errors.Is(err, ErrDataCorrupt) {
		t.Fatalf("VerifyIntegrity = %v, want ErrDataCorrupt", err)
	}
}

func TestKVStoreAttachDetectsDirCorruption(t *testing.T) {
	p, kv := openKV(t, 4)
	p.Device().InjectBitFlip(kv.dir, 1) // nBuckets word
	if _, err := AttachKVStore(p); !errors.Is(err, ErrDataCorrupt) {
		t.Fatalf("AttachKVStore over flipped directory = %v, want ErrDataCorrupt", err)
	}
}

func TestKVStoreIntegrityCleanAfterChurn(t *testing.T) {
	_, kv := openKV(t, 64)
	for k := uint64(1); k <= 64; k += 2 {
		if _, err := kv.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(100); k < 130; k++ {
		if err := kv.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after churn: %v", err)
	}
	n, err := kv.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 32+30 {
		t.Fatalf("Len = %d, want 62", n)
	}
}
