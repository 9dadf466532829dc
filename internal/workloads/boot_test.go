package workloads

import (
	"fmt"
	"slices"
	"testing"
)

// bootState is what a test reads back from one store to see what the
// boot decision wrote.
type bootState struct {
	config, manifest, repl string
	keys                   int
}

func readBootState(t *testing.T, kv *KVStore) bootState {
	t.Helper()
	n, epoch, err := kv.ReadConfig()
	if err != nil {
		t.Fatal(err)
	}
	m, err := kv.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	re, rs, err := kv.ReadReplCursor()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := kv.Len()
	if err != nil {
		t.Fatal(err)
	}
	st := bootState{config: fmt.Sprintf("%d@%d", n, epoch), manifest: "none", repl: fmt.Sprintf("%d/%d", re, rs), keys: keys}
	if m != nil {
		st.manifest = fmt.Sprintf("kind %d %d->%d@%d cursor %d", m.Kind, m.OldN, m.NewN, m.Epoch, m.Cursor)
	}
	return st
}

// bootWrites lists, shard by shard, what changed between two readings.
func bootWrites(before, after []bootState, stores []*KVStore) []string {
	var w []string
	for i := range stores {
		if stores[i] == nil {
			continue
		}
		b, a := before[i], after[i]
		if b.config != a.config {
			w = append(w, fmt.Sprintf("%d: config %s", i, a.config))
		}
		if b.manifest != a.manifest {
			w = append(w, fmt.Sprintf("%d: manifest %s", i, a.manifest))
		}
		if b.keys != a.keys {
			w = append(w, fmt.Sprintf("%d: keys %d", i, a.keys))
		}
		if b.repl != a.repl {
			w = append(w, fmt.Sprintf("%d: repl cursor %s", i, a.repl))
		}
	}
	return w
}

// TestBootDecision holds the boot decision to one row per durable state a
// cluster can be found in: the verdict RecoverBoot returns, the one
// DecideBoot predicts without writing, and every write the boot makes.
func TestBootDecision(t *testing.T) {
	reshard := func(oldN, newN, epoch, cursor uint64) *Manifest {
		return &Manifest{Kind: ManifestReshard, Epoch: epoch, OldN: oldN, NewN: newN, Cursor: cursor}
	}
	marker := &Manifest{Kind: ManifestRestore, Epoch: 4, OldN: 2, NewN: 2}
	// Every row starts from stores of 20 keys each, replication cursor 7/9.
	for _, tc := range []struct {
		name   string
		stores int
		down   []int // shards passed as nil
		setup  func(s []*KVStore) error
		want   string // BootVerdict.String
		n      int
		writes []string
		refuse string // the refusal, for a state the boot refuses
	}{
		{name: "fresh", stores: 2, setup: func([]*KVStore) error { return nil },
			want: "fresh: the first boot commits its shard count at epoch 1", n: 0,
			writes: []string{"0: config 2@1"}},
		{name: "committed", stores: 2, setup: func(s []*KVStore) error { return s[0].WriteConfig(2, 3) },
			want: "committed to 2 shards at epoch 3", n: 2},
		{name: "stale manifest on shard 0", stores: 2, setup: func(s []*KVStore) error {
			return firstErr(s[0].WriteConfig(2, 3), s[0].WriteManifest(reshard(1, 2, 3, 64)))
		}, want: "committed to 2 shards at epoch 3; clear 1 stale manifest(s)", n: 2,
			writes: []string{"0: manifest none"}},
		{name: "stale manifest on a later shard", stores: 3, setup: func(s []*KVStore) error {
			return firstErr(s[0].WriteConfig(3, 2), s[2].WriteManifest(reshard(3, 2, 2, 64)))
		}, want: "committed to 3 shards at epoch 2; clear 1 stale manifest(s)", n: 3,
			writes: []string{"2: manifest none"}},
		{name: "active reshard", stores: 3, setup: func(s []*KVStore) error {
			return firstErr(s[0].WriteConfig(2, 1), s[0].WriteManifest(reshard(2, 3, 2, 16)), s[1].WriteManifest(reshard(2, 3, 2, 8)))
		}, want: "resume the 2->3 reshard at cursor 16 (epoch 2)", n: 3},
		{name: "active reshard, a source's manifest cut during Init", stores: 3, setup: func(s []*KVStore) error {
			return firstErr(s[0].WriteConfig(2, 1), s[0].WriteManifest(reshard(2, 3, 2, 0)))
		}, want: "resume the 2->3 reshard at cursor 0 (epoch 2)", n: 3,
			writes: []string{"1: manifest kind 1 2->3@2 cursor 0"}},
		{name: "restore marker", stores: 2, setup: func(s []*KVStore) error {
			return firstErr(s[0].WriteConfig(2, 3), s[0].WriteManifest(marker))
		}, want: "wipe after a crashed RESTORE (marker for epoch 4)", n: 2,
			writes: []string{"0: manifest none", "0: keys 0", "0: repl cursor 0/0", "1: keys 0", "1: repl cursor 0/0"}},
		{name: "restore marker beside a reshard manifest", stores: 2, setup: func(s []*KVStore) error {
			return firstErr(s[0].WriteConfig(2, 3), s[0].WriteManifest(marker), s[1].WriteManifest(reshard(2, 3, 4, 0)))
		}, refuse: "pools hold both a restore marker and a reshard manifest; refusing to guess"},
		{name: "shards disagree about the migration", stores: 3, setup: func(s []*KVStore) error {
			return firstErr(s[0].WriteConfig(2, 1), s[0].WriteManifest(reshard(2, 3, 2, 0)), s[1].WriteManifest(reshard(2, 4, 2, 0)))
		}, refuse: "shards 0 and 1 disagree about the active migration (2->3@2 vs 2->4@2)"},
		{name: "committed count differs from the pools opened", stores: 2, setup: func(s []*KVStore) error {
			return s[0].WriteConfig(3, 2)
		}, want: "committed to 3 shards at epoch 2", n: 3},
		{name: "a down shard", stores: 3, down: []int{1}, setup: func(s []*KVStore) error {
			return firstErr(s[0].WriteConfig(3, 2), s[1].WriteManifest(reshard(3, 2, 2, 64)))
		}, want: "committed to 3 shards at epoch 2", n: 3},
		{name: "shard 0 down", stores: 2, down: []int{0}, setup: func(s []*KVStore) error {
			return s[1].WriteConfig(2, 1)
		}, want: "fresh: the first boot commits its shard count at epoch 1", n: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			all := make([]*KVStore, tc.stores)
			for i := range all {
				kv, err := NewKVStore(migPool(t), 64)
				if err != nil {
					t.Fatal(err)
				}
				for k := uint64(0); k < 20; k++ {
					if err := kv.Put(k<<8|uint64(i), k); err != nil {
						t.Fatal(err)
					}
				}
				if err := kv.WriteReplCursor(7, 9); err != nil {
					t.Fatal(err)
				}
				all[i] = kv
			}
			if err := tc.setup(all); err != nil {
				t.Fatal(err)
			}
			stores := slices.Clone(all)
			for _, i := range tc.down {
				stores[i] = nil
			}
			read := func() []bootState {
				st := make([]bootState, len(all))
				for i, kv := range all {
					st[i] = readBootState(t, kv)
				}
				return st
			}
			before := read()

			decided, derr := DecideBoot(stores)
			if w := bootWrites(before, read(), all); len(w) > 0 {
				t.Fatalf("DecideBoot wrote %v", w)
			}
			v, err := RecoverBoot(stores, 4, NopCoordinator{})
			writes := bootWrites(before, read(), all)
			if tc.refuse != "" {
				// Both halves refuse alike, and nothing is written.
				if err == nil || derr == nil || err.Error() != tc.refuse || derr.Error() != tc.refuse {
					t.Fatalf("RecoverBoot = %v, DecideBoot = %v; want the refusal %q", err, derr, tc.refuse)
				}
				if len(writes) > 0 {
					t.Fatalf("a refused boot wrote %v", writes)
				}
				return
			}
			if err != nil || derr != nil {
				t.Fatalf("RecoverBoot = %v, DecideBoot = %v", err, derr)
			}
			if v.String() != tc.want || decided.String() != tc.want || v.N != tc.n || decided.N != tc.n {
				t.Fatalf("verdict %q (N %d), decided %q (N %d); want %q (N %d)", v, v.N, decided, decided.N, tc.want, tc.n)
			}
			if !slices.Equal(writes, tc.writes) {
				t.Fatalf("writes %q, want %q", writes, tc.writes)
			}
			if (v.Resharder != nil) != (v.Action == BootResume) || decided.Resharder != nil {
				t.Fatalf("resharder %v for %v (DecideBoot's %v)", v.Resharder, v.Action, decided.Resharder)
			}
			if rs := v.Resharder; rs != nil {
				if old, target := rs.Shape(); old != int(v.Manifest.OldN) || target != int(v.Manifest.NewN) || rs.Epoch() != v.Manifest.Epoch {
					t.Fatalf("resharder %d->%d@%d, want the manifest's %+v", old, target, rs.Epoch(), v.Manifest)
				}
			}
		})
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
