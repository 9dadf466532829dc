package workloads

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"testing"
	"time"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/baselines/engine"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// refWordsCRC is the definition wordsCRC must keep matching bit for bit,
// because every checksum already on media was computed this way: the
// standard library's CRC-32/IEEE over the words' little-endian bytes.
func refWordsCRC(words []uint64) uint64 {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return uint64(crc32.ChecksumIEEE(buf))
}

func TestWordsCRCMatchesChecksumIEEE(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	edge := []uint64{0, 1, 0xFF, 1 << 63, ^uint64(0), 0x0102030405060708}
	for n := 0; n <= slotGroup; n++ {
		for trial := 0; trial < 2000; trial++ {
			words := make([]uint64, n)
			for i := range words {
				if trial%4 == 0 {
					words[i] = edge[rng.Intn(len(edge))]
				} else {
					words[i] = rng.Uint64()
				}
			}
			if got, want := wordsCRC(words...), refWordsCRC(words); got != want {
				t.Fatalf("wordsCRC(%#x) = %#x, want %#x", words, got, want)
			}
		}
	}
}

func FuzzWordsCRC(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("12345678"))
	f.Add(make([]byte, 8*slotGroup))
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, 0, slotGroup)
		for len(data) >= 8 && len(words) < slotGroup {
			words = append(words, binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		if got, want := wordsCRC(words...), refWordsCRC(words); got != want {
			t.Fatalf("wordsCRC(%#x) = %#x, want %#x", words, got, want)
		}
	})
}

// TestAttachParentWrittenImage opens a v1 pool image written by the
// commit before wordsCRC was re-implemented (e0566fa; 48 tenant-prefixed
// keys over 16 buckets, then head/middle deletes and overwrites, a config
// word and a replication cursor). Every checksum in it came from
// crc32.ChecksumIEEE. It must attach, upgrading to v2 in one transaction
// (38 live keys counted, the directory still at its 16 base buckets),
// verify, and read back exactly; then grow past one level and do it all
// again, through a fresh attach of the upgraded image too.
func TestAttachParentWrittenImage(t *testing.T) {
	_, p := attachE0566fa(t)
	kv, err := AttachKVStore(corundumeng.Wrap(p))
	if err != nil {
		t.Fatal(err)
	}
	if !kv.geo.Load().v2() {
		t.Fatal("attach did not upgrade the v1 image")
	}
	if keys, buckets := kv.Shape(); keys != 38 || buckets != 16 {
		t.Fatalf("upgraded Shape = (%d keys, %d buckets), want (38, 16)", keys, buckets)
	}
	model := map[uint64]uint64{}
	for i := uint64(1); i <= 48; i++ {
		want := i * 1000003
		if i%5 == 2 {
			want = i * 7
		}
		if i%5 != 1 {
			model[i<<40|i] = want
		}
	}
	check := func(kv *KVStore) {
		t.Helper()
		checkContents(t, p, kv, model)
		for i := uint64(1); i <= 48; i++ {
			if _, found, err := kv.Get(i<<40 | i); err != nil || (i%5 == 1) == found {
				t.Errorf("Get(%#x) = (found %v, %v); deleted keys must stay gone", i<<40|i, found, err)
			}
		}
		if shards, epoch, err := kv.ReadConfig(); err != nil || shards != 1 || epoch != 3 {
			t.Errorf("ReadConfig = (%d, %d, %v), want (1, 3, nil)", shards, epoch, err)
		}
		if epoch, seq, err := kv.ReadReplCursor(); err != nil || epoch != 2 || seq != 77 {
			t.Errorf("ReadReplCursor = (%d, %d, %v), want (2, 77, nil)", epoch, seq, err)
		}
	}
	check(kv)

	for i := uint64(100); i < 120; i++ {
		if err := kv.Put(i<<40|i, i); err != nil {
			t.Fatal(err)
		}
		model[i<<40|i] = i
	}
	if g := kv.geo.Load(); g.level < 1 || g.buckets() <= 32 {
		t.Fatalf("58 keys over base 16 grew only to level %d, %d buckets", g.level, g.buckets())
	}
	check(kv)
	again, err := AttachKVStore(corundumeng.Wrap(p))
	if err != nil {
		t.Fatal(err)
	}
	check(again)
}

// TestV1ImageServedAtBaseGeometry: a pool that cannot take the upgrade's
// write serves a v1 image as it is, and leaves it v1 for a later
// writable attach; and a v2 image's directory header no longer carries
// the v1 checksum, so a binary that predates growth refuses it.
func TestV1ImageServedAtBaseGeometry(t *testing.T) {
	dev, p := attachE0566fa(t)
	ep := corundumeng.Wrap(p)
	kv, err := AttachKVStore(starvedPool{ep, 1})
	if err != nil {
		t.Fatal(err)
	}
	if kv.geo.Load().v2() {
		t.Fatal("upgrade succeeded without an allocation")
	}
	if keys, buckets := kv.Shape(); keys != 0 || buckets != 16 {
		t.Fatalf("v1 Shape = (%d, %d), want (0, 16)", keys, buckets)
	}
	if v, found, err := kv.Get(2<<40 | 2); err != nil || !found || v != 14 {
		t.Fatalf("Get on the v1 image = (%d, %v, %v)", v, found, err)
	}
	if _, err := kv.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	n := dev.Load8(kv.dir)
	if dev.Load8(kv.dir+8) != wordsCRC(n) {
		t.Fatal("the failed upgrade left the v1 header changed")
	}

	up, err := AttachKVStore(ep)
	if err != nil {
		t.Fatal(err)
	}
	if !up.geo.Load().v2() {
		t.Fatal("a writable attach did not upgrade")
	}
	if dev.Load8(kv.dir+8) == wordsCRC(n) {
		t.Fatal("a v2 header still passes the v1 check")
	}
}

// TestReadHopsDoNotAllocate pins the per-hop read cost at zero heap
// allocations on both read paths, over chains long enough (64 keys in
// one bucket group's worth of buckets) that a per-hop allocation could
// not hide.
func TestReadHopsDoNotAllocate(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ep := corundumeng.Wrap(p)
	kv, err := NewKVStore(ep, 8)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 64
	for k := uint64(1); k <= keys; k++ {
		if err := kv.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	view, err := p.ReadView()
	if err != nil {
		t.Fatal(err)
	}
	k := uint64(0)
	if allocs := testing.AllocsPerRun(500, func() {
		k = k%keys + 1
		if v, found, err := kv.GetView(view, k); err != nil || !found || v != k*10 {
			t.Fatalf("GetView(%d) = (%d, %v, %v)", k, v, found, err)
		}
	}); allocs != 0 {
		t.Errorf("GetView allocates %.1f times per call, want 0", allocs)
	}

	g := kv.geo.Load()
	err = ep.Tx(func(tx engine.Tx) error {
		r := kv.txReader(tx)
		head, err := loadSlot(&r, g, g.phys(1))
		if err != nil {
			return err
		}
		if allocs := testing.AllocsPerRun(500, func() {
			for e := head; e != 0; {
				_, next, _, err := loadEntry(&r, e)
				if err != nil {
					t.Fatal(err)
				}
				e = next
			}
		}); allocs != 0 {
			t.Errorf("loadEntry allocates %.1f times per chain walk, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestV1ChainCycleEndsScrub: a v1 image has no group counts to stop the
// integrity walk, so a chain that loops back on itself with valid entry
// checksums (a stale next through a reused block) must end at the walk's
// step bound with ErrDataCorrupt, not spin while SCRUB holds the shard's
// read lock.
func TestV1ChainCycleEndsScrub(t *testing.T) {
	dev, p := attachE0566fa(t)
	kv, err := AttachKVStore(starvedPool{corundumeng.Wrap(p), 1})
	if err != nil {
		t.Fatal(err)
	}
	g := kv.geo.Load()
	if g.v2() {
		t.Fatal("upgrade succeeded without an allocation")
	}
	var e uint64
	for b := uint64(0); b < g.buckets() && e == 0; b++ {
		e = dev.Load8(g.slot(b))
	}
	key, val := dev.Load8(e+kvKey), dev.Load8(e+kvVal)
	dev.Store8(e+kvNext, e)
	dev.Store8(e+kvCRC, entryCRC(key, e, val))

	const deadline = 30 * time.Second
	done := make(chan error, 1)
	go func() {
		_, err := kv.VerifyIntegrity()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDataCorrupt) {
			t.Fatalf("VerifyIntegrity over a chain cycle = %v, want ErrDataCorrupt", err)
		}
	case <-time.After(deadline):
		t.Fatalf("VerifyIntegrity still walking a chain cycle after %v", deadline)
	}
}

// attachE0566fa attaches a pool over a fresh device holding the v1 image
// written at e0566fa.
func attachE0566fa(t *testing.T) (*pmem.Device, *pool.Pool) {
	t.Helper()
	img, err := os.ReadFile("testdata/kvstore_e0566fa.img")
	if err != nil {
		t.Fatal(err)
	}
	dev := pmem.New(len(img), pmem.Options{})
	dev.StoreBytes(0, img)
	p, err := pool.Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return dev, p
}
