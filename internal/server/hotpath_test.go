package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
	"testing"

	"corundum/internal/obs"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// The serving path's per-op work allocates nothing: parsing a GET, SET
// or DEL line, serving a traced GET into the connection's writer, and
// (per op) handing a run to the batcher.

func TestParseCommandAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, line := range []string{"GET 7", "SET 18446744073709551615 42", "DEL 9", "get 7"} {
		b := []byte(line)
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := ParseCommand(b); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ParseCommand(%q): %v allocations, want 0", line, n)
		}
	}
}

// newHotServer is a single-shard server over an in-memory pool holding
// keys 0..keys-1, with tracing at sample.
func newHotServer(tb testing.TB, keys, sample int) *Server {
	tb.Helper()
	p, err := pool.Create("", pool.Config{Size: 32 << 20, Journals: 4})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(p, Options{TraceSample: sample})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		srv.Close()
		p.Close()
	})
	ops := make([]workloads.Op, keys)
	for i := range ops {
		ops[i] = workloads.Op{Key: uint64(i), Val: uint64(i) + 1}
	}
	for _, r := range srv.Batcher().SubmitMany(ops) {
		if r.Err != nil {
			tb.Fatal(r.Err)
		}
	}
	return srv
}

func TestServeGETAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	srv := newHotServer(t, 64, 1)
	c := &conn{s: srv, w: bufio.NewWriter(io.Discard), traced: true, traces: srv.tracer.Buffer()}
	key := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.lastNS = obs.NowNS()
		c.dispatch(Command{Kind: CmdGet, Key: key % 64})
		c.recordRead(c.mark())
		key++
	}); n != 0 {
		t.Errorf("traced GET: %v allocations, want 0", n)
	}
	if got := srv.m.opSecondsRead.Count(); got < 1000 {
		t.Fatalf("only %d reads were timed: the pin did not exercise the traced path", got)
	}
}

// A run costs the batcher a fixed number of allocations, whatever its
// length: one completion, not a reply channel per op. The fence refuses
// every op, so the committer answers each one without the store and
// journal work a commit would add.
func TestSubmitAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	srv := newHotServer(t, 0, 1)
	b := srv.Batcher()
	refused := errors.New("refused")
	b.SetFence(func(workloads.Op) error { return refused })
	allocs := func(n int) float64 {
		ops := make([]workloads.Op, n)
		for i := range ops {
			ops[i] = workloads.Op{Key: uint64(i), Val: 1}
		}
		return testing.AllocsPerRun(200, func() {
			for _, r := range b.SubmitMany(ops) {
				if r.Err != refused {
					t.Fatalf("op answered %v, want the fence's refusal", r.Err)
				}
			}
		})
	}
	one, many := allocs(1), allocs(64)
	if one != many {
		t.Errorf("a 64-op run costs %v allocations, a 1-op run %v: want the same", many, one)
	}
}

// A committed run costs the batcher exactly what a refused one does: the
// commit itself — batch assembly, journal, allocator and store, in
// set_churn's mix of overwrites, inserts and deletes — touches no Go
// heap, so write-path garbage cannot grow the heap behind the device.
func TestCommitAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const live = 4096
	srv := newHotServer(t, live, 1)
	b := srv.Batcher()
	ops := make([]workloads.Op, 64)
	lo := uint64(0)
	churn := func() {
		for j := uint64(0); j < 16; j++ {
			ops[j] = workloads.Op{Del: true, Key: lo + j}
			ops[16+j] = workloads.Op{Key: lo + live + j, Val: j}
		}
		for j := uint64(32); j < 64; j++ {
			ops[j] = workloads.Op{Key: lo + 16 + j*37%(live-32), Val: lo}
		}
		lo += 16
	}
	committed := testing.AllocsPerRun(200, func() {
		churn()
		for i, r := range b.SubmitMany(ops) {
			if r.Err != nil || !r.Removed { // a put answers true, and every delete finds its key
				t.Fatalf("op %d (%+v) answered %+v", i, ops[i], r)
			}
		}
	})
	refusal := errors.New("refused")
	b.SetFence(func(workloads.Op) error { return refusal })
	refused := testing.AllocsPerRun(200, func() {
		for _, r := range b.SubmitMany(ops) {
			if r.Err != refusal {
				t.Fatalf("op answered %v, want the fence's refusal", r.Err)
			}
		}
	})
	if committed != refused {
		t.Errorf("a committed 64-op run costs %v allocations, a refused one %v: want the same", committed, refused)
	}
}

// BenchmarkServeGET is the whole per-GET serving cost over loopback TCP —
// syscalls, parse, store walk, reply — in get_fit's shape: bursts of 32
// pipelined GETs over 4,096 keys. traced runs at the default
// TraceSample 1 (every op timed and traced); untraced at -1. Their ratio
// is what leaving tracing on costs.
func BenchmarkServeGET(b *testing.B) {
	for _, c := range []struct {
		name   string
		sample int
	}{{"traced", 1}, {"untraced", -1}} {
		b.Run(c.name, func(b *testing.B) {
			const keys, burst = 4096, 32
			srv := newHotServer(b, keys, c.sample)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer nc.Close()
			r := bufio.NewReader(nc)
			var req []byte
			b.ResetTimer()
			for done := 0; done < b.N; done += burst {
				req = req[:0]
				for i := 0; i < burst; i++ {
					req = append(req, "GET "...)
					req = strconv.AppendUint(req, uint64(done+i)%keys, 10)
					req = append(req, '\n')
				}
				if _, err := nc.Write(req); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < burst; i++ {
					line, err := r.ReadSlice('\n')
					if err != nil || line[0] != ':' {
						b.Fatalf("reply %q, %v", line, err)
					}
				}
			}
		})
	}
}
