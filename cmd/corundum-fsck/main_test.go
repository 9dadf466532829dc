package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"corundum/internal/alloc"
	"corundum/internal/baselines/corundumeng"
	"corundum/internal/crc"
	"corundum/internal/journal"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// Offsets in the pool's 512-byte header region (internal/pool/header.go):
// static header copies A at [0,128) and B at [128,256), each starting
// with magic, version and size words, and root slot A at 256.
const (
	headerASizeWord = 16
	headerBSizeWord = 128 + 16
	rootSlotA       = 256
)

func newPool(t testing.TB, cfg pool.Config) *pool.Pool {
	t.Helper()
	cfg.Mem = pmem.Options{TrackCrash: true}
	p, err := pool.Create("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var small = pool.Config{Size: 8 << 20, Journals: 4, JournalCap: 64 << 10}

// churn is the transaction script the images are cut from: two
// allocations, a root set beside the second, and a free of the first, so
// cuts land in allocator, root and drop commits.
func churn(p *pool.Pool) error {
	var blocks []uint64
	for i := 0; i < 2; i++ {
		if err := p.Transaction(func(j *journal.Journal) error {
			off, err := j.Alloc(64 << i)
			if err != nil {
				return err
			}
			blocks = append(blocks, off)
			if i == 1 {
				return p.SetRoot(j, off, 0xBEEF)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return p.Transaction(func(j *journal.Journal) error {
		return j.DropLog(blocks[0], 64)
	})
}

// cutImage runs churn on a fresh pool, cuts the power at the cut-th
// device op after formatting (0: never), and returns the durable image.
func cutImage(t testing.TB, cfg pool.Config, cut uint64) []byte {
	t.Helper()
	p := newPool(t, cfg)
	dev := p.Device()
	if cut > 0 {
		dev.CrashAt(dev.OpCount() + cut)
	}
	if !pmem.Contain(func() {
		if err := churn(p); err != nil {
			t.Fatal(err)
		}
	}) && cut > 0 {
		return nil // the script ended before the cut
	}
	dev.Crash()
	return dev.DurableSnapshot()
}

// device returns a fresh device whose durable image is a copy of img.
func device(img []byte) *pmem.Device {
	dev := pmem.New(len(img), pmem.Options{TrackCrash: true})
	dev.RestoreDurable(img)
	return dev
}

// damaged returns img with damage applied through a device.
func damaged(img []byte, damage func(*pmem.Device)) []byte {
	dev := device(img)
	damage(dev)
	return dev.DurableSnapshot()
}

func flip(off uint64, bit uint8) func(*pmem.Device) {
	return func(dev *pmem.Device) { dev.InjectBitFlip(off, bit) }
}

// freeHead returns the offset of arena 0's first nonempty free-list head.
func freeHead(t testing.TB, p *pool.Pool) uint64 {
	t.Helper()
	off, size := alloc.FreeHeadsRange(p.ArenaMetaRange(0).Off)
	for end := off + size; off < end; off += 8 {
		if p.Device().Load8(off) != 0 {
			return off
		}
	}
	t.Fatal("arena 0 has no free block")
	return 0
}

// midTxImage returns the durable image of a pool whose power was cut in
// the middle of a transaction: at its second fence, when the journal's
// running state is durable and the commit is far off.
func midTxImage(t testing.TB) []byte {
	t.Helper()
	p := newPool(t, small)
	dev := p.Device()
	fences := 0
	dev.SetFaultInjector(func(op pmem.Op) bool {
		if op == pmem.OpFence {
			fences++
		}
		return fences == 2
	})
	pmem.Contain(func() {
		_ = p.Transaction(func(j *journal.Journal) error {
			off, err := j.Alloc(64)
			if err != nil {
				return err
			}
			return p.SetRoot(j, off, 1)
		})
	})
	dev.SetFaultInjector(nil)
	dev.Crash()
	return dev.DurableSnapshot()
}

// writeFile stores img under dir and returns its path.
func writeFile(t testing.TB, dir, name string, img []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVerdicts: fsck's status line and exit code for each class of image
// agree with what the next open does with it.
func TestVerdicts(t *testing.T) {
	base := cutImage(t, small, 0)
	p, err := pool.Attach(device(base))
	if err != nil {
		t.Fatal(err)
	}
	targets, err := pool.FlipTargets(p.Device())
	if err != nil {
		t.Fatal(err)
	}
	dirSlots := targets[1].Off // the journal directory
	// The last order-map checksum slot sits just below arena 0's slab
	// ledger; its low word is the CRC.
	lastCRC := p.ArenaLedgerRange(0).Off - 8
	head := freeHead(t, p)
	meta := p.ArenaMetaRange(0).Off

	// A clean image is described from the pool its open attaches.
	var out bytes.Buffer
	run(&out, writeFile(t, t.TempDir(), "clean.pool", base))
	for _, line := range []string{
		fmt.Sprintf("  root        offset %#x, type hash 0xbeef\n", p.RootOff()),
		"  journals    4\n",
		fmt.Sprintf("  heap        %d in use, %d free\n", p.InUse(), p.FreeBytes()),
	} {
		if !strings.Contains(out.String(), line) {
			t.Fatalf("output lacks %q:\n%s", line, out.String())
		}
	}

	for _, tc := range []struct {
		name   string
		img    []byte
		status string
		exit   int
	}{
		{"clean", base, "clean\n", 0},
		{"cut mid-transaction", midTxImage(t), "clean (recovery rolled back 1, rolled forward 0 transaction(s))", 0},
		{"root slot A flipped", damaged(base, flip(rootSlotA, 0)), "repairable: the next open rewrites root\n", 1},
		{"directory slot flipped", damaged(base, flip(dirSlots, 0)), "repairable: the next open rewrites journal-dir 0\n", 1},
		{"allocator checksum flipped", damaged(base, flip(lastCRC, 2)), "repairable: the next open rewrites bitmap 0\n", 1},
		{"header copy A flipped", damaged(base, flip(headerASizeWord, 3)), "repairable: the next open rewrites header\n", 1},
		{"free-list head smashed", damaged(base, func(dev *pmem.Device) {
			dev.Store8(head, 0xDEADBEEF)
			dev.Persist(head, 8)
		}), "degraded: opens read-only, 2 range(s) quarantined", 1},
		{"both header copies flipped", damaged(base, func(dev *pmem.Device) {
			flip(headerASizeWord, 1)(dev)
			flip(headerBSizeWord, 1)(dev)
		}), "refused: pool: image failed structural check: both static header copies failed their checksum", 1},
		{"not a pool", make([]byte, 64<<10), "refused: pool: file is not a Corundum pool", 1},
		// A committed allocator redo log is replayed by the open; fsck
		// must judge the arena it leaves, not the one at rest.
		{"redo log that smashes a free-list head", damaged(base, func(dev *pmem.Device) {
			var entry [24]byte // [off][val][width]
			binary.LittleEndian.PutUint64(entry[0:], head)
			binary.LittleEndian.PutUint64(entry[8:], 0xDEADBEEF)
			binary.LittleEndian.PutUint64(entry[16:], 8)
			var hdr [16]byte // [count][crc]
			binary.LittleEndian.PutUint64(hdr[0:], 1)
			binary.LittleEndian.PutUint64(hdr[8:], uint64(crc.Checksum(entry[:])))
			dev.Write(meta+16, entry[:])
			dev.Write(meta, hdr[:])
			dev.Persist(meta, 40)
		}), "refused: arena 0: alloc: free list order", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFile(t, t.TempDir(), "img.pool", tc.img)
			var out bytes.Buffer
			code := run(&out, path)
			if !strings.Contains(out.String(), "  status      "+tc.status) || code != tc.exit {
				t.Fatalf("exit %d, want %d with status %q; output:\n%s", code, tc.exit, tc.status, out.String())
			}
			if n := strings.Count(out.String(), "  status "); n != 1 {
				t.Fatalf("%d status lines:\n%s", n, out.String())
			}
		})
	}
}

// reopen reports what the next repairing open makes of img, observed on
// a copy of its own and without fsck's verdict: AttachRepair's outcome, a
// repair phase in its recovery timeline, and the consistency check a
// writable pool must pass before a server serves it.
func reopen(img []byte) status {
	p, err := pool.AttachRepair(device(img))
	switch {
	case err != nil:
		return refused
	case p.Degraded():
		return degraded
	case p.CheckConsistency() != nil:
		return refused
	}
	for _, ph := range p.RecoveryTimeline() {
		if ph.Name == "repair" {
			return repairable
		}
	}
	return clean
}

// TestVerdictsAgreeWithAttachRepair sweeps sampled bit flips over every
// non-heap range a flip campaign targets, and every power cut of the
// churn script, and holds fsck's status on each image to what the open
// does with a separate copy of it.
func TestVerdictsAgreeWithAttachRepair(t *testing.T) {
	cfg := pool.Config{Size: 1 << 20, Journals: 2, JournalCap: 8 << 10}
	var seen [refused + 1]int
	check := func(what string, img []byte) {
		t.Helper()
		got, want := judge(device(img)).status, reopen(img)
		if got != want {
			t.Fatalf("%s: fsck says %v, the open says %v", what, got, want)
		}
		seen[got]++
	}

	base := cutImage(t, cfg, 0)
	targets, err := pool.FlipTargets(device(base))
	if err != nil {
		t.Fatal(err)
	}
	const perRange = 60
	rng := rand.New(rand.NewSource(1))
	for _, r := range targets[:len(targets)-1] { // the last range is the heap
		for i := 0; i < perRange; i++ {
			off, bit := r.Off+uint64(rng.Int63n(int64(r.Len))), uint8(rng.Intn(8))
			check(fmt.Sprintf("flip of bit %d at %#x", bit, off), damaged(base, flip(off, bit)))
		}
	}
	cuts := 0
	for cut := uint64(1); ; cut++ {
		img := cutImage(t, cfg, cut)
		if img == nil {
			break
		}
		check(fmt.Sprintf("cut at op %d", cut), img)
		cuts++
	}
	t.Logf("%d flips and %d cuts; clean %d, repairable %d, degraded %d, refused %d",
		perRange*(len(targets)-1), cuts, seen[clean], seen[repairable], seen[degraded], seen[refused])
	if seen[clean] == 0 || seen[repairable] == 0 || seen[degraded] == 0 || cuts == 0 {
		t.Fatal("the sweep did not reach every class it should")
	}
}

func (s status) String() string {
	return [...]string{"clean", "repairable", "degraded", "refused"}[s]
}

// kvImage writes a KV store of 256 tenant keys into a pool file at path.
func kvImage(t testing.TB, path string, cfg pool.Config) {
	t.Helper()
	p, err := pool.Create(path, cfg)
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
}

// TestStoreShapeLeavesFileAlone: fsck reads a KV store's chain shape from
// a pool file, and judging a clean, a crashed or a damaged file leaves it
// byte-for-byte what it was.
func TestStoreShapeLeavesFileAlone(t *testing.T) {
	dir := t.TempDir()
	kvPath := filepath.Join(dir, "kv.pool")
	kvImage(t, kvPath, pool.Config{Size: 8 << 20, Journals: 2})
	kv, err := os.ReadFile(kvPath)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{
		kvPath,
		writeFile(t, dir, "crashed.pool", midTxImage(t)),
		writeFile(t, dir, "flipped.pool", damaged(kv, flip(rootSlotA, 0))),
	}
	for _, path := range paths {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		run(&out, path)
		if path == kvPath {
			if !strings.Contains(out.String(), "  store       256 keys, longest chain ") {
				t.Fatalf("no store shape for 256 keys:\n%s", out.String())
			}
			dev, err := load(path)
			if err != nil {
				t.Fatal(err)
			}
			v := judge(dev)
			if v.status != clean {
				t.Fatalf("the KV image judged %v: %v", v.status, v)
			}
			_, st, err := storeShape(v.p)
			if err != nil {
				t.Fatal(err)
			}
			if st.Keys != 256 || st.Longest < 1 || st.Longest > 32 || st.MeanHit() < 1 || st.MeanHit() > float64(st.Longest) {
				t.Fatalf("storeShape = %+v (mean hit %.2f), want 256 keys in chains no longer than 32", st, st.MeanHit())
			}
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("judging %s wrote the file", filepath.Base(path))
		}
	}
}

// TestFsckMemory: judging a 16 MiB pool with 16 journals allocates at
// most three times the pool's bytes.
func TestFsckMemory(t *testing.T) {
	cfg := pool.Config{Size: 16 << 20, Journals: 16}
	path := filepath.Join(t.TempDir(), "kv.pool")
	kvImage(t, path, cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if code := run(io.Discard, path); code != 0 {
		t.Fatalf("exit %d on a clean pool", code)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("fsck allocated %d bytes (%.2fx the pool)", got, float64(got)/float64(cfg.Size))
	if got > 3*uint64(cfg.Size) {
		t.Fatalf("fsck allocated %d bytes, more than 3x the %d-byte pool", got, cfg.Size)
	}
}

// TestLayoutLine: for a KV store, fsck prints what the next boot does
// with the cluster state the file records, from the same decision the
// server boots with, and the status line and exit code stay the pool's.
func TestLayoutLine(t *testing.T) {
	reshard := &workloads.Manifest{Kind: workloads.ManifestReshard, Epoch: 2, OldN: 1, NewN: 2, Cursor: 8}
	for _, tc := range []struct {
		name   string
		edit   func(kv *workloads.KVStore) error
		layout string
	}{
		{"fresh", func(*workloads.KVStore) error { return nil },
			"fresh: the first boot commits its shard count at epoch 1"},
		{"committed", func(kv *workloads.KVStore) error { return kv.WriteConfig(2, 3) },
			"committed to 2 shards at epoch 3"},
		{"mid-migration", func(kv *workloads.KVStore) error {
			if err := kv.WriteConfig(1, 1); err != nil {
				return err
			}
			return kv.WriteManifest(reshard)
		}, "resume the 1->2 reshard at cursor 8 (epoch 2)"},
		{"restore marker", func(kv *workloads.KVStore) error {
			if err := kv.WriteConfig(2, 3); err != nil {
				return err
			}
			return kv.WriteManifest(&workloads.Manifest{Kind: workloads.ManifestRestore, Epoch: 4, OldN: 2, NewN: 2})
		}, "wipe after a crashed RESTORE (marker for epoch 4)"},
		{"stale manifest", func(kv *workloads.KVStore) error {
			if err := kv.WriteConfig(2, 2); err != nil {
				return err
			}
			return kv.WriteManifest(reshard)
		}, "committed to 2 shards at epoch 2; clear 1 stale manifest(s)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "kv.pool")
			p, err := pool.Create(path, small)
			if err != nil {
				t.Fatal(err)
			}
			kv, err := workloads.NewKVStore(corundumeng.Wrap(p), 64)
			if err == nil {
				err = tc.edit(kv)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			code := run(&out, path)
			if !strings.Contains(out.String(), "  layout      "+tc.layout+"\n") {
				t.Errorf("no layout line %q:\n%s", tc.layout, out.String())
			}
			if !strings.Contains(out.String(), "  status      clean\n") || code != 0 {
				t.Errorf("exit %d, want 0 with status clean:\n%s", code, out.String())
			}
		})
	}
}
