package workloads

import (
	"compress/gzip"
	"io"
	"math/rand"
	"os"
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// v2Phys is the v2 placement rule, written out: linear hashing over
// key·fib. A grown v2 image is served by it, and a v3 image places every
// key below 2^32 by it.
func v2Phys(n0, level, split, key uint64) uint64 {
	h := key * fib
	b := h & (n0<<level - 1)
	if b < split {
		b = h & (n0<<(level+1) - 1)
	}
	return b
}

// fuzzGeometry builds a geometry from arbitrary inputs: a base of up to
// 2^20 buckets, up to 12 levels and a split pointer on a group boundary.
func fuzzGeometry(shift, level uint8, split uint64, v3 bool) *geometry {
	g := baseGeometry(0, 1<<(shift%21))
	g.level = uint64(level % 13)
	g.split = split % (g.n0 << g.level / g.gsz) * g.gsz
	g.v3 = v3
	return g
}

// TestV3PlacesSmallKeysAsV2: for keys below 2^32, whatever the geometry,
// the v3 rule and the v2 rule name the same physical bucket. That is what
// leaves every store of small keys — the attribution goldens, the
// sequential censuses, get_fit, get_large, set_churn — placed, split and
// grown exactly as before.
func TestV3PlacesSmallKeysAsV2(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for range 2000 {
		g := fuzzGeometry(uint8(rng.Intn(21)), uint8(rng.Intn(13)), rng.Uint64(), true)
		for range 64 {
			key := uint64(rng.Uint32())
			if rng.Intn(4) == 0 {
				key = uint64(rng.Intn(1 << 16))
			}
			if got, want := g.phys(key), v2Phys(g.n0, g.level, g.split, key); got != want {
				t.Fatalf("n0 %d level %d split %d: v3 places key %#x in bucket %d, v2 in %d",
					g.n0, g.level, g.split, key, got, want)
			}
		}
	}
	if mix(0) != 0 {
		t.Fatalf("mix(0) = %#x: keys below 2^32 would move", mix(0))
	}
}

// FuzzPhys holds phys to linear hashing's contract on both rules: a key's
// physical bucket is congruent to its base coordinate (Bucket) mod n0 and
// lies inside the directory, and one more split moves a key only from a
// bucket of the group being split, b, to b+half — exactly when its hash
// has the bit splitGroup tests.
func FuzzPhys(f *testing.F) {
	f.Add(uint64(1)<<40|7, uint8(12), uint8(4), uint64(40), true)
	f.Add(uint64(12345), uint8(3), uint8(0), uint64(0), false)
	f.Add(^uint64(0), uint8(0), uint8(9), uint64(3), true)
	f.Fuzz(func(t *testing.T, key uint64, shift, level uint8, split uint64, v3 bool) {
		g := fuzzGeometry(shift, level, split, v3)
		b := g.phys(key)
		if b&(g.n0-1) != key*fib&(g.n0-1) {
			t.Fatalf("phys %d is not congruent to base coordinate %d mod %d", b, key*fib&(g.n0-1), g.n0)
		}
		if b >= g.buckets() {
			t.Fatalf("phys %d outside the %d-bucket directory", b, g.buckets())
		}
		half := g.n0 << g.level
		next := *g
		if next.split += next.gsz; next.split == half {
			next.level, next.split = next.level+1, 0
		}
		inGroup := b >= g.split && b < g.split+g.gsz
		moves := inGroup && g.hash(key)&half != 0
		switch b2 := next.phys(key); {
		case moves && b2 != b+half:
			t.Fatalf("split of [%d, %d) moves key %#x from %d to %d, want %d", g.split, g.split+g.gsz, key, b, b2, b+half)
		case !moves && b2 != b:
			t.Fatalf("split of [%d, %d) moves key %#x from %d to %d, want it to stay", g.split, g.split+g.gsz, key, b, b2)
		}
	})
}

// TestTenantKeysSpreadOnEveryShard loads the benchmark's tenant set split
// by ShardFor over 2 and 4 shards, each shard a 4,096-bucket base: every
// shard's chains must be as short as the unsharded store's. A split hash
// correlated with ShardFor would leave a shard's keys agreeing on the
// bits its splits read, and its chains long.
func TestTenantKeysSpreadOnEveryShard(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 131,072 keys")
	}
	const keys = 65536
	for _, n := range []int{2, 4} {
		for shard := range n {
			var mine []uint64
			for idx := uint64(0); idx < keys; idx++ {
				if k := tenantKey(idx); ShardFor(k, n) == shard {
					mine = append(mine, k)
				}
			}
			_, kv := newGrowStore(t, 32<<20, 4096)
			loadKeys(t, kv, uint64(len(mine)), func(i uint64) uint64 { return mine[i] })
			st, err := kv.VerifyIntegrity()
			if err != nil {
				t.Fatal(err)
			}
			if st.Keys != uint64(len(mine)) || st.MeanHit() > 10 {
				t.Errorf("%d shards, shard %d: %d keys at mean chain position %.2f (longest %d), want %d at <= 10",
					n, shard, st.Keys, st.MeanHit(), st.Longest, len(mine))
			}
			t.Logf("%d shards, shard %d: %d keys, mean chain position %.2f, longest %d", n, shard, st.Keys, st.MeanHit(), st.Longest)
		}
	}
}

// TestV3HeaderFailsV2Check: a new store is v3, and its directory header
// passes neither the v1 nor the v2 check, so a binary that predates v3
// refuses it at the header.
func TestV3HeaderFailsV2Check(t *testing.T) {
	p, kv := newGrowStore(t, 16<<20, 16)
	g := kv.geo.Load()
	if !g.v3 || !g.v2() {
		t.Fatal("a new store is not v3")
	}
	n, rec, hdr := p.Device().Load8(kv.dir), p.Device().Load8(kv.meta+kvMetaGeo), p.Device().Load8(kv.dir+8)
	if hdr == wordsCRC(n) || hdr == wordsCRC(n, rec) {
		t.Fatalf("v3 header %#x passes the v1 or v2 check", hdr)
	}
	if headerFormat(n, rec, hdr) != formatV3 {
		t.Fatalf("header format %d, want 3", headerFormat(n, rec, hdr))
	}
}

// TestNeverSplitV2Upgrades: a v2 image that never split — a store the
// previous format made, at its base directory — attaches as v3, re-sealing
// only its header, with every key where it was.
func TestNeverSplitV2Upgrades(t *testing.T) {
	p, kv := newGrowStore(t, 16<<20, 64)
	model := map[uint64]uint64{}
	for i := uint64(1); i <= 40; i++ {
		k := i%5<<40 | i
		if err := kv.Put(k, i); err != nil {
			t.Fatal(err)
		}
		model[k] = i
	}
	if _, buckets := kv.Shape(); buckets != 64 {
		t.Fatalf("40 keys split a 64-bucket base to %d buckets", buckets)
	}
	// The v2 format wrote the same bytes but for the header's checksum.
	dev := p.Device()
	n, rec := dev.Load8(kv.dir), dev.Load8(kv.meta+kvMetaGeo)
	dev.Store8(kv.dir+8, wordsCRC(n, rec))
	dev.Persist(kv.dir+8, 8)

	up, err := AttachKVStore(kv.pool)
	if err != nil {
		t.Fatal(err)
	}
	if !up.geo.Load().v3 || dev.Load8(kv.dir+8) != dirCRC(formatV3, n, rec) {
		t.Fatal("a never-split v2 image was not upgraded to v3")
	}
	checkContents(t, p, up, model)
}

// TestAttachGrownV2Image opens a grown v2 pool image written by the
// commit before v3 (37e730a): a base-16 store given 96 keys
// (i%8+1)<<40 | i/8 in 8-op batches, valued i·1000003, then every key
// with i%6 == 1 deleted and every one with i%6 == 2 overwritten with i·7,
// a config word (1 shard, epoch 5) and a replication cursor {3, 41}; 80
// keys over 96 buckets, level 2, split pointer 32. Its keys share ids
// across tenants, so the v3 rule would place some of them elsewhere. It
// must attach by the v2 rule it was split by, verify, read back exactly,
// keep growing by that rule, and do it all again through a fresh attach.
func TestAttachGrownV2Image(t *testing.T) {
	f, err := os.Open("testdata/kvstore_grown_v2_37e730a.img.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	dev := pmem.New(len(img), pmem.Options{})
	dev.StoreBytes(0, img)
	p, err := pool.Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	kv, err := AttachKVStore(corundumeng.Wrap(p))
	if err != nil {
		t.Fatal(err)
	}
	g := kv.geo.Load()
	if !g.v2() || g.v3 || g.level != 2 || g.split != 32 {
		t.Fatalf("attached v2 %v, v3 %v, level %d, split %d; want a grown v2 image at level 2, split 32", g.v2(), g.v3, g.level, g.split)
	}
	if keys, buckets := kv.Shape(); keys != 80 || buckets != 96 {
		t.Fatalf("Shape = (%d keys, %d buckets), want (80, 96)", keys, buckets)
	}
	model := map[uint64]uint64{}
	moved := 0
	v3 := *g
	v3.v3 = true
	for i := uint64(0); i < 96; i++ {
		k := (i%8+1)<<40 | i/8
		switch i % 6 {
		case 1:
			continue
		case 2:
			model[k] = i * 7
		default:
			model[k] = i * 1000003
		}
		if v3.phys(k) != g.phys(k) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key of the image is placed differently by v3: the image cannot tell the rules apart")
	}
	check := func(kv *KVStore) {
		t.Helper()
		checkContents(t, p, kv, model)
		if shards, epoch, err := kv.ReadConfig(); err != nil || shards != 1 || epoch != 5 {
			t.Errorf("ReadConfig = (%d, %d, %v), want (1, 5, nil)", shards, epoch, err)
		}
		if epoch, seq, err := kv.ReadReplCursor(); err != nil || epoch != 3 || seq != 41 {
			t.Errorf("ReadReplCursor = (%d, %d, %v), want (3, 41, nil)", epoch, seq, err)
		}
	}
	check(kv)
	hdr := dev.Load8(kv.dir + 8)

	for i := uint64(96); i < 200; i++ {
		k := (i%8+1)<<40 | i/8
		if err := kv.Put(k, i); err != nil {
			t.Fatal(err)
		}
		model[k] = i
	}
	if g := kv.geo.Load(); g.v3 || g.level < 3 {
		t.Fatalf("after growing: v3 %v, level %d; want the v2 rule past level 3", g.v3, g.level)
	}
	if dev.Load8(kv.dir+8) != hdr {
		t.Fatal("growing re-sealed the v2 header")
	}
	check(kv)
	again, err := AttachKVStore(corundumeng.Wrap(p))
	if err != nil {
		t.Fatal(err)
	}
	if again.geo.Load().v3 {
		t.Fatal("a fresh attach of the grown v2 image upgraded it")
	}
	check(again)
}
