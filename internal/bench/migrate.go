package bench

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
)

// MigrationRow is one serving-throughput measurement taken around an
// online shard split: the same client load measured before RESHARD
// starts ("steady"), while keys are moving between pools ("migrating"),
// and after the new layout commits ("after"). The claim under test is
// that serving continues throughout the split — the migrating row must
// show real throughput, with the -MOVED/-BUSY retries the clients
// absorbed counted rather than hidden.
type MigrationRow struct {
	Phase      string  `json:"phase"` // steady | migrating | after
	FromShards int     `json:"from_shards"`
	ToShards   int     `json:"to_shards"`
	Clients    int     `json:"clients"`
	Ops        int     `json:"ops"`
	Seconds    float64 `json:"seconds"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	MeanUs     float64 `json:"lat_mean_us"`
	P99Us      float64 `json:"lat_p99_us"`
	// Retries counts retryable refusals (-MOVED, -BUSY) the clients hit;
	// each retried op's latency includes its retries.
	Retries uint64 `json:"retries"`
	// MovedKeys/Batches are the migration's own progress (last observed
	// via INFO before commit); only the migrating row carries them.
	MovedKeys uint64 `json:"moved_keys,omitempty"`
	Batches   uint64 `json:"batches,omitempty"`
}

// ServerMigration measures serving throughput and tail latency through
// a live fromN->toN reshard: seed the keyspace, measure a steady-state
// window, issue RESHARD and measure until the migration commits, then
// measure the committed layout. The migration is throttled just enough
// to make the in-flight window measurable.
func ServerMigration(clients, seedKeys, fromN, toN int, mem pmem.Options) ([]MigrationRow, error) {
	pools := make([]*pool.Pool, fromN)
	for i := range pools {
		p, err := pool.Create("", pool.Config{Size: 256 << 20, Journals: 16, Mem: mem})
		if err != nil {
			return nil, err
		}
		pools[i] = p
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	srv, err := server.NewSharded(pools, server.Options{
		MaxBatch: 64,
		// Small batches and a light throttle stretch the split so the
		// migrating window is long enough to measure; target pools are
		// created in-memory with shard 0's geometry.
		MigrateBatchBuckets: 64,
		MigrationThrottle:   2 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	// Seed the keyspace the split will have to move, with the pipelined
	// writer the other server experiments use.
	seeders := 4
	for id := 0; id < seeders; id++ {
		if err := serverClient(addr, id, seedKeys/seeders, 64, 0, 0); err != nil {
			return nil, fmt.Errorf("seeding: %w", err)
		}
	}

	ctl, err := newBenchConn(addr)
	if err != nil {
		return nil, err
	}
	defer ctl.close()

	steadyWindow := 300 * time.Millisecond
	row := func(phase string, shards int, r loadResult) MigrationRow {
		return MigrationRow{
			Phase: phase, FromShards: fromN, ToShards: toN, Clients: clients,
			Ops: r.ops, Seconds: r.seconds,
			OpsPerSec: float64(r.ops) / r.seconds,
			MeanUs:    r.meanUs, P99Us: r.p99Us, Retries: r.retries,
		}
	}

	// Phase 1: steady state on the old layout.
	steady, err := runMigrationLoad(addr, clients, 100, timedStop(steadyWindow))
	if err != nil {
		return nil, fmt.Errorf("steady phase: %w", err)
	}

	// Phase 2: the split in flight. A poller watches INFO and releases the
	// load the moment the migration commits, remembering the last progress
	// numbers INFO reported while it was active.
	if rep, err := ctl.cmd(fmt.Sprintf("RESHARD %d", toN)); err != nil || rep != "+OK" {
		return nil, fmt.Errorf("RESHARD %d = (%q, %v)", toN, rep, err)
	}
	stop := make(chan struct{})
	var moved, batches uint64
	var pollErr error
	go func() {
		defer close(stop)
		for {
			info, err := ctl.info()
			if err != nil {
				pollErr = err
				return
			}
			if info["migration_active"] != "true" {
				return
			}
			if v, err := strconv.ParseUint(info["migration_moved_keys"], 10, 64); err == nil {
				moved = v
			}
			if v, err := strconv.ParseUint(info["migration_batches"], 10, 64); err == nil {
				batches = v
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	migrating, err := runMigrationLoad(addr, clients, 200, stop)
	if err != nil {
		return nil, fmt.Errorf("migrating phase: %w", err)
	}
	if pollErr != nil {
		return nil, fmt.Errorf("polling migration progress: %w", pollErr)
	}
	if err := srv.MigrationError(); err != nil {
		return nil, fmt.Errorf("migration parked instead of committing: %w", err)
	}

	// Phase 3: steady state on the committed layout.
	after, err := runMigrationLoad(addr, clients, 300, timedStop(steadyWindow))
	if err != nil {
		return nil, fmt.Errorf("after phase: %w", err)
	}
	info, err := ctl.info()
	if err != nil {
		return nil, err
	}
	if info["shards"] != strconv.Itoa(toN) {
		return nil, fmt.Errorf("INFO shards = %q after migration, want %d", info["shards"], toN)
	}

	migRow := row("migrating", fromN, migrating)
	migRow.MovedKeys, migRow.Batches = moved, batches
	return []MigrationRow{
		row("steady", fromN, steady),
		migRow,
		row("after", toN, after),
	}, nil
}

// timedStop returns a channel that closes after d.
func timedStop(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		time.Sleep(d)
		close(ch)
	}()
	return ch
}

type loadResult struct {
	ops     int
	seconds float64
	meanUs  float64
	p99Us   float64
	retries uint64
}

// runMigrationLoad drives serial unique-key SETs from `clients`
// connections until stop closes, measuring each op's client-observed
// latency (retries included: a -MOVED absorbed by backoff is real
// latency the migration imposed on that op).
func runMigrationLoad(addr string, clients, idBase int, stop <-chan struct{}) (loadResult, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []float64
		retries  uint64
		firstErr error
	)
	start := time.Now()
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := newBenchConn(addr)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			defer c.close()
			var myLats []float64
			var myRetries uint64
			for n := uint64(0); ; n++ {
				select {
				case <-stop:
					mu.Lock()
					lats = append(lats, myLats...)
					retries += myRetries
					mu.Unlock()
					return
				default:
				}
				key := uint64(idBase+id)<<40 | n
				opStart := time.Now()
				for {
					rep, err := c.cmd(fmt.Sprintf("SET %d %d", key, key^0x5DEECE66D))
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("client %d: %w", id, err)
						}
						mu.Unlock()
						return
					}
					if rep == "+OK" {
						break
					}
					if server.IsRetryableReply(rep) {
						myRetries++
						time.Sleep(50 * time.Microsecond)
						continue
					}
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d: SET %d = %q", id, key, rep)
					}
					mu.Unlock()
					return
				}
				myLats = append(myLats, float64(time.Since(opStart).Microseconds()))
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if firstErr != nil {
		return loadResult{}, firstErr
	}
	if len(lats) == 0 {
		return loadResult{}, fmt.Errorf("load window closed before any op completed")
	}
	sort.Float64s(lats)
	var sum float64
	for _, l := range lats {
		sum += l
	}
	return loadResult{
		ops:     len(lats),
		seconds: elapsed,
		meanUs:  sum / float64(len(lats)),
		p99Us:   lats[len(lats)*99/100],
		retries: retries,
	}, nil
}

// benchConn is a minimal line-protocol client for the bench harness
// (the test suite has its own; bench cannot import it).
type benchConn struct {
	c net.Conn
	r *bufio.Reader
}

func newBenchConn(addr string) (*benchConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &benchConn{c: c, r: bufio.NewReader(c)}, nil
}

func (b *benchConn) close() { b.c.Close() }

// cmd sends one command and returns the reply with bulk payloads
// flattened ('\n'-joined, CRLF stripped).
func (b *benchConn) cmd(line string) (string, error) {
	if _, err := fmt.Fprintf(b.c, "%s\n", line); err != nil {
		return "", err
	}
	head, err := b.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	head = strings.TrimRight(head, "\r\n")
	if strings.HasPrefix(head, "$") && head != "$-1" {
		n, err := strconv.Atoi(head[1:])
		if err != nil {
			return "", fmt.Errorf("bad bulk header %q", head)
		}
		body := make([]byte, n+2) // payload + CRLF
		if _, err := io.ReadFull(b.r, body); err != nil {
			return "", err
		}
		return strings.TrimRight(string(body), "\r\n"), nil
	}
	return head, nil
}

// info fetches and parses the INFO reply into key -> value.
func (b *benchConn) info() (map[string]string, error) {
	rep, err := b.cmd("INFO")
	if err != nil {
		return nil, err
	}
	m := make(map[string]string)
	for _, line := range strings.Split(rep, "\n") {
		if k, v, ok := strings.Cut(line, ": "); ok {
			m[k] = v
		}
	}
	return m, nil
}

// PrintMigration renders the migration phase table.
func PrintMigration(w io.Writer, rows []MigrationRow) {
	fmt.Fprintf(w, "%-10s %8s %8s %10s %12s %10s %10s %10s %12s %10s\n",
		"phase", "from", "to", "ops", "ops/sec", "mean µs", "p99 µs", "retries", "moved keys", "batches")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %8d %10d %12.0f %10.1f %10.1f %10d %12d %10d\n",
			r.Phase, r.FromShards, r.ToShards, r.Ops, r.OpsPerSec, r.MeanUs, r.P99Us, r.Retries, r.MovedKeys, r.Batches)
	}
}

// AppendMigrationCSV appends the migration block to server.csv: a blank
// separator line, then its own header and rows (the block has a
// different shape than the main table).
func AppendMigrationCSV(w io.Writer, rows []MigrationRow) error {
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"phase", "from_shards", "to_shards", "clients", "ops", "seconds", "ops_per_sec", "lat_mean_us", "lat_p99_us", "retries", "moved_keys", "batches"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Phase,
			strconv.Itoa(r.FromShards),
			strconv.Itoa(r.ToShards),
			strconv.Itoa(r.Clients),
			strconv.Itoa(r.Ops),
			fmt.Sprintf("%.4f", r.Seconds),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.1f", r.MeanUs),
			fmt.Sprintf("%.1f", r.P99Us),
			strconv.FormatUint(r.Retries, 10),
			strconv.FormatUint(r.MovedKeys, 10),
			strconv.FormatUint(r.Batches, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
