package workloads

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/baselines/engine"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// slot is the offset of physical bucket b's slot.
func (g *geometry) slot(b uint64) uint64 {
	first, _ := g.group(b)
	return first + (b&(g.gsz-1))*8
}

func newGrowStore(t *testing.T, size, base int) (*pool.Pool, *KVStore) {
	t.Helper()
	p, err := pool.Create("", pool.Config{Size: size})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	kv, err := NewKVStore(corundumeng.Wrap(p), base)
	if err != nil {
		t.Fatal(err)
	}
	return p, kv
}

// checkContents reads every model key back through the locked and the
// lock-free path, checks that ScanRange answers in base coordinates, and
// runs the full integrity walk (placement and per-group counts included).
func checkContents(t *testing.T, p *pool.Pool, kv *KVStore, model map[uint64]uint64) {
	t.Helper()
	if _, err := kv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	view, err := p.ReadView()
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range model {
		if v, found, err := kv.Get(k); err != nil || !found || v != want {
			t.Fatalf("Get(%d) = (%d, %v, %v), want %d", k, v, found, err, want)
		}
		if v, found, err := kv.GetView(view, k); err != nil || !found || v != want {
			t.Fatalf("GetView(%d) = (%d, %v, %v), want %d", k, v, found, err, want)
		}
	}
	seen := 0
	for c := uint64(0); c < kv.Buckets(); c++ {
		err := kv.ScanRange(c, c+1, func(k, v uint64) bool {
			if kv.Bucket(k) != c || model[k] != v {
				t.Fatalf("ScanRange(%d) visited key %d (bucket %d) = %d, model %d", c, k, kv.Bucket(k), v, model[k])
			}
			seen++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if seen != len(model) {
		t.Fatalf("ScanRange over every coordinate visited %d keys, model holds %d", seen, len(model))
	}
	if keys, _ := kv.Shape(); keys != uint64(len(model)) {
		t.Fatalf("Shape counts %d keys, model holds %d", keys, len(model))
	}
}

// TestKVStoreGrowsWithKeys drives a base-8 store through five levels one
// Put at a time: the physical directory must track the key count exactly
// (a Put that leaves more keys than buckets splits one group), deletes
// must never shrink it, and a re-attach must find the same shape.
func TestKVStoreGrowsWithKeys(t *testing.T) {
	p, kv := newGrowStore(t, 16<<20, 8)
	model := map[uint64]uint64{}
	for k := uint64(1); k <= 300; k++ {
		if err := kv.Put(k, k*7); err != nil {
			t.Fatal(err)
		}
		model[k] = k * 7
		if keys, buckets := kv.Shape(); keys != k || buckets != max(8, (k+7)&^7) {
			t.Fatalf("after %d puts: Shape = (%d keys, %d buckets), want (%d, %d)", k, keys, buckets, k, max(8, (k+7)&^7))
		}
	}
	if kv.geo.Load().level < 5 {
		t.Fatalf("300 keys over base 8 reached level %d, want 5", kv.geo.Load().level)
	}
	checkContents(t, p, kv, model)
	for k := uint64(1); k <= 300; k += 3 {
		if removed, err := kv.Delete(k); err != nil || !removed {
			t.Fatalf("Delete(%d) = (%v, %v)", k, removed, err)
		}
		delete(model, k)
	}
	if _, buckets := kv.Shape(); buckets != 304 {
		t.Fatalf("deletes moved the directory to %d buckets, want 304", buckets)
	}
	checkContents(t, p, kv, model)

	again, err := AttachKVStore(corundumeng.Wrap(p))
	if err != nil {
		t.Fatal(err)
	}
	wk, wb := kv.Shape()
	if gk, gb := again.Shape(); gk != wk || gb != wb {
		t.Fatalf("re-attach found (%d keys, %d buckets), want (%d, %d)", gk, gb, wk, wb)
	}
	checkContents(t, p, again, model)
}

// TestBatchSplitsKeepLoadFactorOne: a 64-insert batch splits as many
// groups as its inserts need, so batched loading never drifts above a
// load factor of one.
func TestBatchSplitsKeepLoadFactorOne(t *testing.T) {
	p, kv := newGrowStore(t, 16<<20, 16)
	model := map[uint64]uint64{}
	for round := uint64(0); round < 20; round++ {
		ops := make([]Op, 64)
		for i := range ops {
			k := round*64 + uint64(i) + 1
			ops[i] = Op{Key: k, Val: k}
			model[k] = k
		}
		if _, err := kv.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if keys, buckets := kv.Shape(); buckets < keys || buckets-keys >= slotGroup {
			t.Fatalf("round %d: %d keys in %d buckets", round, keys, buckets)
		}
	}
	checkContents(t, p, kv, model)
}

// loadKeys stores keyOf(0..n-1) in 64-op batches, the way the
// benchmark's preload does.
func loadKeys(t *testing.T, kv *KVStore, n uint64, keyOf func(uint64) uint64) {
	t.Helper()
	ops := make([]Op, 0, 64)
	for idx := uint64(0); idx < n; idx++ {
		ops = append(ops, Op{Key: keyOf(idx), Val: idx})
		if len(ops) == cap(ops) || idx == n-1 {
			if _, err := kv.Apply(ops); err != nil {
				t.Fatal(err)
			}
			ops = ops[:0]
		}
	}
}

// tenantKey is the benchmark's mixed_zipf key set: 256 tenants' ids
// 0..255 under a (t+1)<<40 prefix. Its ids take 256 of a 4,096-bucket
// base's coordinates, 256 keys each.
func tenantKey(idx uint64) uint64 { return (idx>>8+1)<<40 | idx&0xff }

// TestBenchmarkKeySetsShape loads the benchmark's key sets the way its
// preload does (64-op batches into a 4,096-bucket base) and pins the
// directory each grows to and the mean chain position the integrity walk
// measures: get_large's 262,144 sequential ids end one per bucket,
// get_fit's 4,096 never split, and the tenant set's 65,536 keys split
// apart by their high halves (geometry.hash). Each of the tenant set's
// 256 base coordinates grows 16 physical buckets, so its chains keep
// about 16 keys: 8.86 is the mean position, against 128.5 when splits
// read key·fib alone.
func TestBenchmarkKeySetsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 262,144 keys")
	}
	sequential := func(idx uint64) uint64 { return idx + 1 }
	for _, c := range []struct {
		name          string
		keys          uint64
		keyOf         func(uint64) uint64
		buckets       uint64
		before, after float64 // mean chain position at the base directory, and grown
	}{
		{"get_fit", 4096, sequential, 4096, 1, 1},
		{"get_large", 262144, sequential, 262144, 32.5, 1},
		{"tenant", 65536, tenantKey, 65536, 128.5, 9},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, kv := newGrowStore(t, 128<<20, 4096)
			loadKeys(t, kv, c.keys, c.keyOf)
			keys, buckets := kv.Shape()
			if keys != c.keys || buckets != c.buckets {
				t.Fatalf("Shape = (%d keys, %d buckets), want (%d, %d)", keys, buckets, c.keys, c.buckets)
			}
			st, err := kv.VerifyIntegrity()
			if err != nil {
				t.Fatal(err)
			}
			if st.Keys != c.keys || st.MeanHit() > c.after {
				t.Fatalf("walk counts %d keys at mean chain position %.2f, want %d at <= %.2f (%.1f at the base directory)",
					st.Keys, st.MeanHit(), c.keys, c.after, c.before)
			}
		})
	}
}

// TestOverwriteLeavesGeometryAlone: a batch that only overwrites touches
// neither the geometry record nor any group word, and publishes nothing.
func TestOverwriteLeavesGeometryAlone(t *testing.T) {
	_, kv := newGrowStore(t, 16<<20, 8)
	for k := uint64(1); k <= 20; k++ {
		if err := kv.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	g := kv.geo.Load()
	if _, err := kv.Apply([]Op{{Key: 3, Val: 30}, {Key: 9, Val: 90}}); err != nil {
		t.Fatal(err)
	}
	if kv.geo.Load() != g {
		t.Fatal("an overwrite-only batch published a new geometry")
	}
}

// TestSegmentAllocationFailureSkipsGrowth: when the pool has no room for
// the next segment, the insert that called for it still commits, and the
// store keeps serving (and grows again once room appears).
func TestSegmentAllocationFailureSkipsGrowth(t *testing.T) {
	p, kv := newGrowStore(t, 16<<20, 8)
	model := map[uint64]uint64{}
	for k := uint64(1); k <= 8; k++ {
		if err := kv.Put(k, k); err != nil {
			t.Fatal(err)
		}
		model[k] = k
	}
	starved := &KVStore{pool: starvedPool{kv.pool, 72}, dir: kv.dir, meta: kv.meta}
	starved.geo.Store(kv.geo.Load())
	starved.keys.Store(kv.keys.Load())
	for k := uint64(9); k <= 12; k++ {
		if err := starved.Put(k, k); err != nil {
			t.Fatalf("Put(%d) failed when only growth lacked room: %v", k, err)
		}
		model[k] = k
	}
	if keys, buckets := starved.Shape(); keys != 12 || buckets != 8 {
		t.Fatalf("Shape = (%d, %d), want 12 keys still in 8 buckets", keys, buckets)
	}
	kv.geo.Store(starved.geo.Load())
	kv.keys.Store(starved.keys.Load())
	checkContents(t, p, kv, model)
	if err := kv.Put(13, 13); err != nil {
		t.Fatal(err)
	}
	model[13] = 13
	if _, buckets := kv.Shape(); buckets != 16 {
		t.Fatalf("growth did not resume: %d buckets", buckets)
	}
	checkContents(t, p, kv, model)
}

// starvedPool refuses every allocation of at least min bytes.
type starvedPool struct {
	engine.Pool
	min uint64
}

func (p starvedPool) Tx(body func(engine.Tx) error) error {
	return p.Pool.Tx(func(tx engine.Tx) error { return body(starvedTx{tx, p.min}) })
}

type starvedTx struct {
	engine.Tx
	min uint64
}

var errStarved = errors.New("starved")

func (t starvedTx) Alloc(size uint64) (uint64, error) {
	if size >= t.min {
		return 0, errStarved
	}
	return t.Tx.Alloc(size)
}

// TestBatchCutInGrownGroupRecovers cuts power at every device op of one
// batch that both unlinks a mid-chain entry and inserts into the same
// grown group — the batch stores that group's word alone and then the
// whole group, so a store granularity that changed between the two would
// leave the whole-group store without an undo entry. After every cut the
// store must recover whole, to the batch's state before or after.
func TestBatchCutInGrownGroupRecovers(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 1 << 20, Journals: 2, Mem: pmem.Options{TrackCrash: true}})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := NewKVStore(corundumeng.Wrap(p), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Keys k and k|1<<40 share every low hash bit: each chain holds two,
	// the later insert at its head.
	for k := uint64(1); k <= 32; k++ {
		if _, err := kv.Apply([]Op{{Key: k, Val: k}, {Key: k | 1<<40, Val: k}}); err != nil {
			t.Fatal(err)
		}
	}
	g := kv.geo.Load()
	var gone, fresh uint64
	for k := uint64(1); k <= 32 && gone == 0; k++ {
		if g.phys(k) >= g.n0 {
			gone = k // behind k|1<<40 in a grown bucket
		}
	}
	for k := uint64(1 << 20); gone != 0 && fresh == 0; k++ {
		if g.phys(k)&^7 == g.phys(gone)&^7 {
			fresh = k
		}
	}
	if gone == 0 || fresh == 0 {
		t.Fatal("no grown chain of two found")
	}
	img := p.Device().DurableSnapshot()
	p.Close()

	batch := []Op{{Del: true, Key: gone}, {Key: fresh, Val: 7}}
	for cut := uint64(1); ; cut++ {
		dev := pmem.New(len(img), pmem.Options{TrackCrash: true})
		dev.RestoreDurable(img)
		p, err := pool.Attach(dev)
		if err != nil {
			t.Fatal(err)
		}
		kv, err := AttachKVStore(corundumeng.Wrap(p))
		if err != nil {
			t.Fatal(err)
		}
		dev.CrashAt(dev.OpCount() + cut)
		if !pmem.Contain(func() { kv.Apply(batch) }) {
			break // past the batch's last op
		}
		dev.Crash()
		if p, err = pool.Attach(dev); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if kv, err = AttachKVStore(corundumeng.Wrap(p)); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if _, err := kv.VerifyIntegrity(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		_, hadGone, err1 := kv.Get(gone)
		_, hasFresh, err2 := kv.Get(fresh)
		if err1 != nil || err2 != nil || hadGone == hasFresh {
			t.Fatalf("cut %d: key %d present %v, key %d present %v (%v, %v): a torn batch", cut, gone, hadGone, fresh, hasFresh, err1, err2)
		}
	}
}

// TestGroupPayloadsStayDistinguishable pins why a grown group stores its
// word before its slots, and the geometry record its checksum first. The
// journal validates an undo entry with a CRC32 over header and payload. A
// payload that ended in a CRC32 of the words before it would check the
// same whatever those words were (the CRC's residue property), so a torn
// entry — a new header over the previous transaction's payload for the
// same range — would pass, and recovery would restore the older bytes.
// Every multi-word store the store makes to one range must therefore give
// distinct payload checksums for distinct contents, equal key counts
// included.
func TestGroupPayloadsStayDistinguishable(t *testing.T) {
	_, kv := newGrowStore(t, 16<<20, 8)
	rec := &recordingPool{Pool: kv.pool}
	kv.pool = rec
	for k := uint64(1); k <= 40; k++ { // grows the directory: records and grown groups
		if err := kv.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Equal counts, different slots: an insert and a delete in each grown
	// group the 40 keys reached.
	for k := uint64(1000); k < 1040; k++ {
		if _, err := kv.Apply([]Op{{Key: k, Val: k}, {Del: true, Key: k - 999}}); err != nil {
			t.Fatal(err)
		}
	}
	type target struct{ off, size uint64 }
	seen := map[target]map[uint32][]byte{}
	for _, w := range rec.stores {
		if len(w.data) <= 16 { // one word, or an entry's [val][crc] (ROADMAP item 15)
			continue
		}
		tg := target{w.off, uint64(len(w.data))}
		if seen[tg] == nil {
			seen[tg] = map[uint32][]byte{}
		}
		crc := crc32.ChecksumIEEE(w.data)
		if prev, ok := seen[tg][crc]; ok && !bytes.Equal(prev, w.data) {
			t.Fatalf("two %d-byte stores to %#x share a CRC32: %x and %x", tg.size, tg.off, prev, w.data)
		}
		seen[tg][crc] = w.data
	}
	if len(seen) == 0 {
		t.Fatal("no multi-word store was recorded")
	}
}

// recordingPool records every StoreBytes its transactions make outside
// blocks the same transaction allocated: the stores that take an undo
// entry.
type recordingPool struct {
	engine.Pool
	stores []struct {
		off  uint64
		data []byte
	}
}

func (p *recordingPool) Tx(body func(engine.Tx) error) error {
	return p.Pool.Tx(func(tx engine.Tx) error { return body(&recordingTx{Tx: tx, p: p}) })
}

type recordingTx struct {
	engine.Tx
	p     *recordingPool
	fresh [][2]uint64 // blocks this transaction allocated: [start, end)
}

func (t *recordingTx) Alloc(size uint64) (uint64, error) {
	off, err := t.Tx.Alloc(size)
	if err == nil {
		t.fresh = append(t.fresh, [2]uint64{off, off + size})
	}
	return off, err
}

func (t *recordingTx) StoreBytes(off uint64, data []byte) error {
	fresh := false
	for _, b := range t.fresh {
		fresh = fresh || off >= b[0] && off < b[1]
	}
	if !fresh {
		t.p.stores = append(t.p.stores, struct {
			off  uint64
			data []byte
		}{off, bytes.Clone(data)})
	}
	return t.Tx.StoreBytes(off, data)
}
