package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/client"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
	"corundum/internal/workloads"
)

// childEnv makes the test binary run main instead of the tests, so the
// tests below drive the real entry point in its own process.
const childEnv = "CORUNDUM_SERVER_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// child is one corundum-server process started from the test binary.
type child struct {
	cmd  *exec.Cmd
	addr string
	out  *bytes.Buffer // everything it printed before "serving on"
}

// start runs corundum-server with args and waits for its "serving on"
// line.
func start(t *testing.T, args ...string) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	s := &child{cmd: cmd, out: new(bytes.Buffer)}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "serving on "); ok {
				ready <- strings.Fields(rest)[0]
				break
			}
			s.out.WriteString(line + "\n")
		}
		close(ready)
		for sc.Scan() {
		}
	}()
	select {
	case addr, ok := <-ready:
		if !ok {
			t.Fatalf("corundum-server exited before serving:\n%s", s.out)
		}
		s.addr = addr
	case <-time.After(60 * time.Second):
		t.Fatalf("corundum-server did not start serving in 60s:\n%s", s.out)
	}
	return s
}

// stop sends SIGTERM and requires a clean exit.
func (s *child) stop(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Wait(); err != nil {
		t.Fatalf("corundum-server exited with %v after SIGTERM", err)
	}
}

func readFiles(t *testing.T, paths []string) [][]byte {
	t.Helper()
	out := make([][]byte, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestBootLeavesPoolFilesAlone boots corundum-server over pool files a
// previous run wrote and checks that serving the first GET has not
// changed a byte of them: booting opens each pool once and writes
// nothing back, so a kill -9 at any moment of a boot finds the files as
// the last shutdown left them. The shutdown that follows must write them
// (a new generation), which shows the comparison can see a write. The
// sharded case also boots with a stale -shards, which the committed
// layout overrides.
func TestBootLeavesPoolFilesAlone(t *testing.T) {
	for _, tc := range []struct {
		name      string
		shards    int
		reboot    string // -shards on the second boot
		files     []string
		wantInLog string
	}{
		{name: "one pool", shards: 1, reboot: "1", files: []string{""}},
		{name: "two shards", shards: 2, reboot: "1", files: []string{".0", ".1"},
			wantInLog: "pools are committed to 2 shard(s) (config epoch 1); ignoring -shards 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "kv.pool")
			paths := make([]string, len(tc.files))
			for i, suffix := range tc.files {
				paths[i] = base + suffix
			}
			common := []string{"-pool", base, "-size", "16777216", "-journals", "4"}

			first := start(t, append(common, "-shards", strconv.Itoa(tc.shards))...)
			cl := client.NewSession(first.addr, 10*time.Second)
			for k := uint64(1); k <= 16; k++ {
				if err := cl.Set(k, k*10); err != nil {
					t.Fatal(err)
				}
			}
			cl.Close()
			first.stop(t)
			before := readFiles(t, paths)

			second := start(t, append(common, "-shards", tc.reboot)...)
			if tc.wantInLog != "" && !strings.Contains(second.out.String(), tc.wantInLog) {
				t.Errorf("boot log lacks %q:\n%s", tc.wantInLog, second.out)
			}
			cl = client.NewSession(second.addr, 10*time.Second)
			defer cl.Close()
			for k := uint64(1); k <= 16; k++ {
				v, found, err := cl.Get(k)
				if err != nil || !found || v != k*10 {
					t.Fatalf("GET %d = %d, %v, %v; want %d", k, v, found, err, k*10)
				}
			}
			for i, b := range readFiles(t, paths) {
				if !bytes.Equal(b, before[i]) {
					t.Fatalf("%s changed between the shutdown and the first served GET of the next boot", paths[i])
				}
			}
			second.stop(t)
			for i, b := range readFiles(t, paths) {
				if bytes.Equal(b, before[i]) {
					t.Fatalf("%s unchanged by a clean shutdown; the comparison above could not see a write", paths[i])
				}
			}
		})
	}
}

// TestBootNamesCrashedRestore plants the marker a RESTORE that died
// between its wipe and its commit leaves on a pool file, and boots it:
// server.Boot must report the marker as a restore, not as a migration to
// resume, and corundum-server must say that it wipes the keyspace, and
// then serve it empty.
func TestBootNamesCrashedRestore(t *testing.T) {
	base := filepath.Join(t.TempDir(), "kv.pool")
	common := []string{"-pool", base, "-size", "16777216", "-journals", "4"}
	first := start(t, common...)
	cl := client.NewSession(first.addr, 10*time.Second)
	for k := uint64(1); k <= 16; k++ {
		if err := cl.Set(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	first.stop(t)

	p, err := pool.OpenRepair(base, pmem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := workloads.AttachKVStore(corundumeng.Wrap(p))
	if err != nil {
		t.Fatal(err)
	}
	_, epoch, err := kv.ReadConfig()
	if err == nil {
		err = kv.WriteManifest(&workloads.Manifest{Kind: workloads.ManifestRestore, Epoch: epoch + 1, OldN: 1, NewN: 1})
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	lay, err := server.Boot(base, 1, pool.Config{Size: 16 << 20, Journals: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lay.Pools {
		p.Close()
	}
	if lay.Resume != nil || lay.Restore == nil || lay.Restore.Kind != workloads.ManifestRestore || lay.Restore.Epoch != epoch+1 {
		t.Fatalf("Boot reports resume %+v, restore %+v; want only the restore marker for epoch %d", lay.Resume, lay.Restore, epoch+1)
	}

	second := start(t, common...)
	defer second.stop(t)
	log := second.out.String()
	if want := fmt.Sprintf("crashed RESTORE found (marker for epoch %d); the keyspace will be wiped to empty", epoch+1); !strings.Contains(log, want) {
		t.Errorf("boot log lacks %q:\n%s", want, log)
	}
	if strings.Contains(log, "migration found") {
		t.Errorf("boot log calls the restore marker a migration:\n%s", log)
	}
	cl = client.NewSession(second.addr, 10*time.Second)
	defer cl.Close()
	if v, found, err := cl.Get(1); err != nil || found {
		t.Fatalf("GET 1 after the wipe = %d, %v, %v; want not found", v, found, err)
	}
}
