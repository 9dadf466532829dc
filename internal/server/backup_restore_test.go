package server_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/repl"
	"corundum/internal/server"
	"corundum/internal/workloads"
)

// scanToMap parses a SCAN reply into key->value form, so keyspaces can be
// compared across servers whose shard layouts (and so walk orders) differ.
func scanToMap(t *testing.T, reply string) map[uint64]uint64 {
	t.Helper()
	lines := strings.Split(reply, "\n")
	var n int
	if _, err := fmt.Sscanf(lines[0], "*%d", &n); err != nil {
		t.Fatalf("bad SCAN header %q", lines[0])
	}
	if len(lines)-1 != n {
		t.Fatalf("SCAN promised %d pairs, sent %d", n, len(lines)-1)
	}
	m := make(map[uint64]uint64, n)
	for _, line := range lines[1:] {
		var k, v uint64
		if _, err := fmt.Sscanf(line, "%d %d", &k, &v); err != nil {
			t.Fatalf("bad SCAN line %q", line)
		}
		if _, dup := m[k]; dup {
			t.Fatalf("SCAN returned key %d twice", k)
		}
		m[k] = v
	}
	return m
}

// TestBackupRestoreRoundTrip streams a BACKUP while mutations keep
// landing mid-walk (driven deterministically through the chunk hook, so
// the delta path is guaranteed to carry traffic), then restores the file
// into a server with a different shard count that already holds junk —
// and requires the restored walk to match the quiesced source exactly.
//
// The run is deterministic (synchronous clients, fresh pools), which
// pins the file format too: testdata/backup_roundtrip_8f361da.crdbkp is
// the file this same test wrote at commit 8f361da, before BACKUP moved
// onto repl's frame codec. The file written now must equal it byte for
// byte, and the old file must restore to the same keyspace.
func TestBackupRestoreRoundTrip(t *testing.T) {
	pools := newShardPools(t, 2, 16<<20)
	defer closeShardPools(pools)
	srv, err := server.NewSharded(pools, server.Options{MaxBatch: 8, Buckets: 256})
	if err != nil {
		t.Fatal(err)
	}

	// The hook fires once per shard (256 buckets = one scan window), after
	// that shard's walk: its mutations must miss the base frames and ride
	// the delta stream instead. hookMu also publishes hookCl to the
	// server's connection goroutine.
	var (
		hookMu  sync.Mutex
		hookCl  *conn
		hookOps int
	)
	model := map[uint64]uint64{}
	srv.SetBackupChunkHook(func(shard int, _ uint64) {
		hookMu.Lock()
		defer hookMu.Unlock()
		if hookCl == nil {
			return
		}
		fresh := keyOnShard(shard, 2, 50_000+uint64(shard)*1000)
		gone := keyOnShard(shard, 2, 0)   // a seeded key: delete it
		redo := keyOnShard(shard, 2, 100) // a seeded key: overwrite it
		for _, c := range []struct {
			cmd  string
			want string
		}{
			{fmt.Sprintf("SET %d %d", fresh, fresh+1), "+OK"},
			{fmt.Sprintf("DEL %d", gone), ":1"},
			{fmt.Sprintf("SET %d 777", redo), "+OK"},
		} {
			if rep, err := hookCl.cmd(c.cmd); err != nil || rep != c.want {
				t.Errorf("hook %s = (%q, %v), want %q", c.cmd, rep, err, c.want)
				return
			}
		}
		model[fresh] = fresh + 1
		delete(model, gone)
		model[redo] = 777
		hookOps += 3
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl := dial(t, ln.Addr().String())
	defer cl.close()
	for k := uint64(0); k < 200; k++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
		model[k] = valFor(k)
	}
	mut := dial(t, ln.Addr().String())
	defer mut.close()
	hookMu.Lock()
	hookCl = mut
	hookMu.Unlock()

	path := filepath.Join(t.TempDir(), "snap.crdbkp")
	rep := parseKV(t, mustCmd(t, cl, "BACKUP "+path))
	if t.Failed() {
		t.FailNow() // a hook mutation failed inside the walk
	}
	deltaOps, err := strconv.ParseUint(rep["delta_ops"], 10, 64)
	if err != nil || deltaOps < uint64(hookOps) {
		t.Fatalf("backup delta_ops = %q, want >= %d (mid-walk mutations must ride the delta stream)",
			rep["delta_ops"], hookOps)
	}
	if hookOps == 0 {
		t.Fatal("chunk hook never fired; the backup walk skipped instrumentation")
	}

	fixture, err := filepath.Abs("testdata/backup_roundtrip_8f361da.crdbkp")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("backup differs from the file commit 8f361da wrote for the same store (%d vs %d bytes, err %v)",
			len(got), len(want), err)
	}

	// The server is quiesced now: its live walk IS the snapshot state.
	reference := scanToMap(t, mustCmd(t, cl, "SCAN"))
	if len(reference) != len(model) {
		t.Fatalf("live walk holds %d keys, model %d", len(reference), len(model))
	}
	for k, v := range model {
		if reference[k] != v {
			t.Fatalf("live key %d = %d, model says %d", k, reference[k], v)
		}
	}

	// Restore into a DIFFERENT layout (3 shards) already holding junk:
	// RESTORE must replace the keyspace wholesale.
	pools2 := newShardPools(t, 3, 16<<20)
	defer closeShardPools(pools2)
	srv2, addr2 := startShardedServer(t, pools2, server.Options{MaxBatch: 8, Buckets: 256})
	defer srv2.Close()
	cl2 := dial(t, addr2)
	defer cl2.close()
	for i := uint64(0); i < 40; i++ {
		mustReply(t, cl2, fmt.Sprintf("SET %d 1", 900_000+i), "+OK")
	}
	for _, file := range []string{path, fixture} {
		mustReply(t, cl2, "SET 900000 2", "+OK") // junk again before the second restore
		rrep := parseKV(t, mustCmd(t, cl2, "RESTORE "+file))
		if rrep["backup_shards"] != "2" {
			t.Fatalf("restore report backup_shards = %q, want 2", rrep["backup_shards"])
		}
		restored := scanToMap(t, mustCmd(t, cl2, "SCAN"))
		if len(restored) != len(reference) {
			t.Fatalf("%s: restored walk holds %d keys, snapshot had %d", file, len(restored), len(reference))
		}
		for k, v := range reference {
			if rv, ok := restored[k]; !ok || rv != v {
				t.Fatalf("%s: restored key %d = (%d, %v), snapshot says %d", file, k, rv, ok, v)
			}
		}
	}
}

// craftBackup frames a hand-made backup file: each frame is its type
// (1 header, 2 base, 3 delta, 4 shard-end, 5 footer) followed by its
// payload words, CRC-clean — only the contents lie.
func craftBackup(frames [][]uint64) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	w.WriteString("CRDBKP01")
	for _, f := range frames {
		repl.WriteFrame(w, uint32(f[0]), f[1:])
	}
	w.Flush()
	return buf.Bytes()
}

// TestRestoreRejectsDamage feeds RESTORE truncated, bit-flipped,
// plain-garbage and well-framed-but-lying files: each must be rejected
// loudly during validation, with the serving keyspace untouched.
func TestRestoreRejectsDamage(t *testing.T) {
	pools := newShardPools(t, 2, 16<<20)
	defer closeShardPools(pools)
	srv, addr := startShardedServer(t, pools, server.Options{MaxBatch: 8, Buckets: 256})
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.close()
	for k := uint64(0); k < 64; k++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "good.crdbkp")
	mustCmd(t, cl, "BACKUP "+path)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before := mustCmd(t, cl, "SCAN")

	damage := []struct {
		name string
		make func() []byte
	}{
		{"truncated", func() []byte { return good[:len(good)-5] }},
		{"bitflip", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)/2] ^= 0x40
			return b
		}},
		{"garbage", func() []byte { return []byte("this is not a backup file") }},
		// Outside-input words: a count that wraps the payload-length
		// check (2+2n overflows to 2, and pass 2 would index by it), and
		// shard ids the header's shard count does not cover.
		{"count-overflow", func() []byte {
			return craftBackup([][]uint64{{1, 1, 2, 1}, {2, 0, 1 << 63}, {4, 0, 1 << 63}, {4, 1, 0}, {5, 1 << 63, 0, 2}})
		}},
		{"delta-count-over-bound", func() []byte {
			return craftBackup([][]uint64{{1, 1, 2, 1}, {4, 0, 0}, {4, 1, 0}, append([]uint64{3, 0, 1025}, make([]uint64, 3*1025)...), {5, 0, 1025, 2}})
		}},
		{"base-shard-out-of-range", func() []byte {
			return craftBackup([][]uint64{{1, 1, 2, 1}, {2, 2, 1, 7, 7}, {4, 2, 1}, {5, 1, 0, 2}})
		}},
		{"delta-shard-out-of-range", func() []byte {
			return craftBackup([][]uint64{{1, 1, 2, 1}, {4, 0, 0}, {4, 1, 0}, {3, 9, 1, 0, 7, 7}, {5, 0, 1, 2}})
		}},
		{"shard-end-out-of-range", func() []byte {
			return craftBackup([][]uint64{{1, 1, 2, 1}, {4, 0, 0}, {4, 1, 0}, {4, 5, 0}, {5, 0, 0, 2}})
		}},
	}
	for _, d := range damage {
		bad := filepath.Join(dir, d.name+".crdbkp")
		if err := os.WriteFile(bad, d.make(), 0o644); err != nil {
			t.Fatal(err)
		}
		rep := mustCmd(t, cl, "RESTORE "+bad)
		if !strings.HasPrefix(rep, "-ERR") || !strings.Contains(rep, "rejecting") {
			t.Fatalf("%s restore reply = %q, want a loud -ERR rejection", d.name, rep)
		}
		if after := mustCmd(t, cl, "SCAN"); after != before {
			t.Fatalf("%s: keyspace changed after a rejected restore", d.name)
		}
	}

	// The pristine file still restores fine afterwards.
	if rep := mustCmd(t, cl, "RESTORE "+path); !strings.HasPrefix(rep, "$") {
		t.Fatalf("pristine restore reply = %q", rep)
	}
	if after := mustCmd(t, cl, "SCAN"); after != before {
		t.Fatal("round-tripping the pristine file changed the keyspace")
	}
}

// TestCrashedRestoreWipesAtBoot plants the durable restore marker a
// crashed RESTORE would leave (written after validation, before the
// commit) over a dirty keyspace: the next boot must wipe every shard to
// empty and say so in INFO, never serving a blend of old and half-written
// data.
func TestCrashedRestoreWipesAtBoot(t *testing.T) {
	pools := newShardPools(t, 2, 16<<20)
	defer closeShardPools(pools)
	srv, addr := startShardedServer(t, pools, server.Options{MaxBatch: 8, Buckets: 256})
	cl := dial(t, addr)
	for k := uint64(0); k < 100; k++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, valFor(k)), "+OK")
	}
	cl.close()
	srv.Close()

	kv0, err := workloads.AttachKVStore(corundumeng.Wrap(pools[0]))
	if err != nil {
		t.Fatal(err)
	}
	_, cfgEpoch, err := kv0.ReadConfig()
	if err != nil {
		t.Fatal(err)
	}
	if err := kv0.WriteManifest(&workloads.Manifest{
		Kind: workloads.ManifestRestore, Epoch: cfgEpoch + 1,
		OldN: 2, NewN: 2,
	}); err != nil {
		t.Fatal(err)
	}

	srv2, addr2 := startShardedServer(t, pools, server.Options{MaxBatch: 8, Buckets: 256})
	cl2 := dial(t, addr2)
	mustReply(t, cl2, "SCAN", "*0")
	info := parseKV(t, mustCmd(t, cl2, "INFO"))
	if info["restore_wiped_at_boot"] != "true" {
		t.Fatal("INFO does not report restore_wiped_at_boot after the wipe")
	}
	cl2.close()
	srv2.Close()

	if m, err := kv0.ReadManifest(); err != nil || m != nil {
		t.Fatalf("restore marker survived the boot wipe (m=%v err=%v)", m, err)
	}
}
