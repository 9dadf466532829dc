package workloads

import (
	"errors"
	"math/rand"
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/baselines/engine"
)

func migPool(t *testing.T) engine.Pool {
	t.Helper()
	p, err := corundumeng.Lib{}.Open(engine.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestManifestConfigRoundTrip(t *testing.T) {
	p := migPool(t)
	kv, err := NewKVStore(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n, ep, err := kv.ReadConfig(); err != nil || n != 0 || ep != 0 {
		t.Fatalf("fresh config = %d,%d,%v; want zeros", n, ep, err)
	}
	if m, err := kv.ReadManifest(); err != nil || m != nil {
		t.Fatalf("fresh manifest = %v,%v; want nil", m, err)
	}
	if err := kv.WriteConfig(4, 7); err != nil {
		t.Fatal(err)
	}
	if n, ep, err := kv.ReadConfig(); err != nil || n != 4 || ep != 7 {
		t.Fatalf("config = %d,%d,%v; want 4,7", n, ep, err)
	}

	want := &Manifest{
		Kind: ManifestReshard, Epoch: 8, OldN: 4, NewN: 8,
		Cursor: 40, BatchBuckets: 16, Batch: []uint64{3, 99, 12345678901234},
	}
	if err := kv.WriteManifest(want); err != nil {
		t.Fatal(err)
	}
	got, err := kv.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Kind != want.Kind || got.Epoch != want.Epoch || got.OldN != want.OldN ||
		got.NewN != want.NewN || got.Cursor != want.Cursor || got.BatchBuckets != want.BatchBuckets ||
		len(got.Batch) != len(want.Batch) {
		t.Fatalf("manifest round-trip: got %+v want %+v", got, want)
	}
	for i := range want.Batch {
		if got.Batch[i] != want.Batch[i] {
			t.Fatalf("batch[%d] = %d want %d", i, got.Batch[i], want.Batch[i])
		}
	}
	// Replacing a manifest frees the old block and survives an integrity walk.
	if err := kv.WriteManifest(&Manifest{Kind: ManifestRestore, Epoch: 9, OldN: 4, NewN: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := kv.ClearManifest(); err != nil {
		t.Fatal(err)
	}
	if m, err := kv.ReadManifest(); err != nil || m != nil {
		t.Fatalf("cleared manifest = %v,%v; want nil", m, err)
	}
	if _, err := kv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}

	// Meta state must survive re-attach.
	kv2, err := AttachKVStore(p)
	if err != nil {
		t.Fatal(err)
	}
	if n, ep, err := kv2.ReadConfig(); err != nil || n != 4 || ep != 7 {
		t.Fatalf("config after attach = %d,%d,%v; want 4,7", n, ep, err)
	}
}

// reshardFixture populates oldN stores with nKeys keys laid out for an
// oldN-shard cluster and returns the stores (padded to max(oldN,newN)
// with fresh empty stores) plus the key→value model.
func reshardFixture(t *testing.T, oldN, newN, nKeys int) ([]*KVStore, map[uint64]uint64) {
	t.Helper()
	stores := make([]*KVStore, max(oldN, newN))
	for i := range stores {
		p := migPool(t)
		kv, err := NewKVStore(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = kv
	}
	if err := stores[0].WriteConfig(oldN, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	model := make(map[uint64]uint64, nKeys)
	for len(model) < nKeys {
		k, v := rng.Uint64(), rng.Uint64()
		model[k] = v
		if err := stores[ShardFor(k, oldN)].Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	return stores, model
}

// verifyPlacement asserts every model key lives exactly once, at its
// n-shard home, with the right value.
func verifyPlacement(t *testing.T, stores []*KVStore, n int, model map[uint64]uint64) {
	t.Helper()
	for k, want := range model {
		home := ShardFor(k, n)
		for s, st := range stores {
			got, found, err := st.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if s == home && (!found || got != want) {
				t.Fatalf("key %d: home shard %d has %d,%v want %d", k, home, got, found, want)
			}
			if s != home && found {
				t.Fatalf("key %d: duplicated on shard %d (home %d)", k, s, home)
			}
		}
	}
	total := 0
	for _, st := range stores {
		l, err := st.Len()
		if err != nil {
			t.Fatal(err)
		}
		total += l
	}
	if total != len(model) {
		t.Fatalf("stores hold %d keys, model has %d", total, len(model))
	}
	for _, st := range stores {
		if _, err := st.VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReshardSplitAndMerge(t *testing.T) {
	for _, tc := range []struct{ oldN, newN int }{{1, 2}, {2, 4}, {4, 2}, {3, 1}} {
		stores, model := reshardFixture(t, tc.oldN, tc.newN, 150)
		rs, err := NewResharder(stores, tc.oldN, tc.newN, 2, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Init(); err != nil {
			t.Fatal(err)
		}
		completed, err := rs.Run(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !completed {
			t.Fatalf("%d->%d: Run did not complete", tc.oldN, tc.newN)
		}
		verifyPlacement(t, stores, tc.newN, model)
		if n, ep, err := stores[0].ReadConfig(); err != nil || n != tc.newN || ep != 2 {
			t.Fatalf("%d->%d: committed config = %d,%d,%v", tc.oldN, tc.newN, n, ep, err)
		}
		for s, st := range stores {
			if m, err := st.ReadManifest(); err != nil || m != nil {
				t.Fatalf("%d->%d: shard %d manifest not cleared: %v,%v", tc.oldN, tc.newN, s, m, err)
			}
		}
		moved, batches, frac := rs.Progress()
		if batches == 0 || frac != 1.0 {
			t.Fatalf("%d->%d: progress moved=%d batches=%d frac=%v", tc.oldN, tc.newN, moved, batches, frac)
		}
	}
}

// TestReshardOwnerMidMigration steps a split one batch at a time and
// asserts after every batch that each key is readable exactly where
// Owner says it lives — the "reads are never wrong" invariant.
func TestReshardOwnerMidMigration(t *testing.T) {
	stores, model := reshardFixture(t, 2, 4, 200)
	rs, err := NewResharder(stores, 2, 4, 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Init(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		for {
			done, err := rs.Step(s)
			if err != nil {
				t.Fatal(err)
			}
			for k, want := range model {
				o := rs.Owner(k)
				got, found, err := stores[o].Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if !found || got != want {
					t.Fatalf("mid-migration: key %d at owner %d = %d,%v want %d", k, o, got, found, want)
				}
			}
			if done {
				break
			}
		}
	}
	if !rs.Done() {
		t.Fatal("Done() false after all sources stepped to completion")
	}
	if err := rs.Finish(); err != nil {
		t.Fatal(err)
	}
	verifyPlacement(t, stores, 4, model)
}

// TestReshardAttachResume abandons a split midway (as a crash or SIGTERM
// would) and drives it to completion with a fresh Resharder attached
// from the durable manifests alone.
func TestReshardAttachResume(t *testing.T) {
	stores, model := reshardFixture(t, 1, 3, 120)
	rs, err := NewResharder(stores, 1, 3, 2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Init(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if done, err := rs.Step(0); err != nil {
			t.Fatal(err)
		} else if done {
			t.Fatal("split finished before the test could abandon it; shrink the batch window")
		}
	}

	// "Restart": rebuild from persistent state only.
	m, err := stores[0].ReadManifest()
	if err != nil || m == nil {
		t.Fatalf("manifest after abandon: %v, %v", m, err)
	}
	if m.Cursor == 0 {
		t.Fatal("cursor did not advance")
	}
	rs2, err := NewResharder(stores, int(m.OldN), int(m.NewN), m.Epoch, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs2.Attach(); err != nil {
		t.Fatal(err)
	}
	// Mutations that happened while the migration was parked must still
	// land correctly: overwrite one unmigrated key, delete another.
	var overwrote, deleted uint64
	found := 0
	for k := range model {
		if rs2.Owner(k) == 0 && found < 2 {
			if found == 0 {
				overwrote = k
				model[k] = 424242
				if err := stores[0].Put(k, 424242); err != nil {
					t.Fatal(err)
				}
			} else {
				deleted = k
				delete(model, k)
				if _, err := stores[0].Delete(k); err != nil {
					t.Fatal(err)
				}
			}
			found++
		}
	}
	if found != 2 {
		t.Fatal("could not find unmigrated keys to mutate")
	}
	_ = overwrote
	_ = deleted

	completed, err := rs2.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("resumed Run did not complete")
	}
	verifyPlacement(t, stores, 3, model)
}

// TestReshardFenceRefusesWindow checks CheckWrite refuses exactly the
// keys whose batch is mid-move and routes them to their new home.
func TestReshardFenceRefusesWindow(t *testing.T) {
	stores, model := reshardFixture(t, 1, 2, 80)
	rs, err := NewResharder(stores, 1, 2, 2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Init(); err != nil {
		t.Fatal(err)
	}
	rs.fence.Store(&fenceWindow{Src: 0, Lo: 0, Hi: stores[0].Buckets()})
	defer rs.fence.Store(nil)
	refused := 0
	for k := range model {
		err := rs.CheckWrite(0, k)
		if ShardFor(k, 2) == 0 {
			if err != nil {
				t.Fatalf("key %d staying on shard 0 refused: %v", k, err)
			}
			continue
		}
		var mv MovedError
		if !errors.As(err, &mv) {
			t.Fatalf("fenced key %d: err = %v, want MovedError", k, err)
		}
		if mv.Shard != ShardFor(k, 2) {
			t.Fatalf("fenced key %d routed to %d, want %d", k, mv.Shard, ShardFor(k, 2))
		}
		refused++
	}
	if refused == 0 {
		t.Fatal("fence refused nothing")
	}
}
