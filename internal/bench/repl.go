package bench

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
)

// ReplicationResult is the replication section of BENCH_server.json: what
// a live replica costs the primary, what the replica gives back (read
// offload), how far it trails under write load, and how long a failover
// takes. CI gates on the replica serving reads (replica_read_ops_per_sec
// > 0) and on failover_seconds being present.
type ReplicationResult struct {
	Clients  int `json:"clients"`
	SeedKeys int `json:"seed_keys"`
	// BootstrapSeconds is snapshot bootstrap wall-clock: REPLICAOF issued
	// on a populated primary until the replica has the keyspace and a
	// drained cursor.
	BootstrapSeconds float64 `json:"bootstrap_seconds"`
	// Write columns: primary SET throughput with the replica attached and
	// streaming (the shipping cost is in these numbers, not a separate
	// run).
	WriteOpsPerSec float64 `json:"write_ops_per_sec"`
	WriteP99Us     float64 `json:"write_lat_p99_us"`
	// MaxLagFrames/Bytes is the deepest the replica trailed during the
	// write window; CatchupSeconds is how long after the window it took
	// to drain back to zero.
	MaxLagFrames   uint64  `json:"max_lag_frames"`
	MaxLagBytes    uint64  `json:"max_lag_bytes"`
	CatchupSeconds float64 `json:"catchup_seconds"`
	// SteadyLagFrames is the drained lag (must be 0 on a healthy pair).
	SteadyLagFrames uint64 `json:"steady_lag_frames"`
	// Replica read columns: GET throughput served by the replica itself.
	ReplicaReadOpsPerSec float64 `json:"replica_read_ops_per_sec"`
	ReplicaReadP99Us     float64 `json:"replica_read_lat_p99_us"`
	// FailoverSeconds is the outage a failover costs: the primary is
	// gone, and the clock runs from PROMOTE until the promoted replica
	// acknowledges its first write.
	FailoverSeconds float64 `json:"failover_seconds"`
}

// ServerReplication measures a primary/replica pair end to end: seed the
// primary, time the replica's snapshot bootstrap, run a write window
// against the primary while sampling replication lag, run a read window
// against the replica, then kill the primary and time the promotion
// outage.
func ServerReplication(clients, seedKeys int, mem pmem.Options) (*ReplicationResult, error) {
	const shards = 2
	mkPools := func() ([]*pool.Pool, error) {
		pools := make([]*pool.Pool, shards)
		for i := range pools {
			p, err := pool.Create("", pool.Config{Size: 256 << 20, Journals: 16, Mem: mem})
			if err != nil {
				return nil, err
			}
			pools[i] = p
		}
		return pools, nil
	}
	poolsA, err := mkPools()
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, p := range poolsA {
			p.Close()
		}
	}()
	opts := server.Options{MaxBatch: 64}
	srvA, err := server.NewSharded(poolsA, opts)
	if err != nil {
		return nil, err
	}
	defer srvA.Close()
	rlnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := srvA.EnableReplicationSource(rlnA); err != nil {
		return nil, err
	}
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srvA.Serve(lnA)
	addrA := lnA.Addr().String()

	// Seed the keyspace the bootstrap will have to ship.
	seeders := 4
	for id := 0; id < seeders; id++ {
		if err := serverClient(addrA, id, seedKeys/seeders, 64, 0, 0); err != nil {
			return nil, fmt.Errorf("seeding: %w", err)
		}
	}

	// Replica: join first (snapshot bootstrap starts), then park its own
	// replication listener for the later promotion.
	poolsB, err := mkPools()
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, p := range poolsB {
			p.Close()
		}
	}()
	srvB, err := server.NewSharded(poolsB, opts)
	if err != nil {
		return nil, err
	}
	defer srvB.Close()
	bootStart := time.Now()
	if err := srvB.ReplicaOf(rlnA.Addr().String()); err != nil {
		return nil, err
	}
	rlnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := srvB.EnableReplicationSource(rlnB); err != nil {
		return nil, err
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srvB.Serve(lnB)
	addrB := lnB.Addr().String()

	res := &ReplicationResult{Clients: clients, SeedKeys: seedKeys}
	if err := waitDrained(srvB, 60*time.Second); err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	res.BootstrapSeconds = time.Since(bootStart).Seconds()

	// Write window on the primary, lag sampler on the replica.
	samplerStop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-samplerStop:
				return
			case <-time.After(time.Millisecond):
			}
			lag := srvB.ReplLag()
			if lag.Frames > res.MaxLagFrames {
				res.MaxLagFrames = lag.Frames
			}
			if lag.Bytes > res.MaxLagBytes {
				res.MaxLagBytes = lag.Bytes
			}
		}
	}()
	writes, err := runMigrationLoad(addrA, clients, 100, timedStop(400*time.Millisecond))
	if err != nil {
		return nil, fmt.Errorf("write window: %w", err)
	}
	close(samplerStop)
	sampler.Wait()
	res.WriteOpsPerSec = float64(writes.ops) / writes.seconds
	res.WriteP99Us = writes.p99Us

	catchupStart := time.Now()
	if err := waitDrained(srvB, 60*time.Second); err != nil {
		return nil, fmt.Errorf("catch-up: %w", err)
	}
	res.CatchupSeconds = time.Since(catchupStart).Seconds()
	res.SteadyLagFrames = srvB.ReplLag().Frames

	// Read window on the replica, over keys the seeders wrote.
	reads, err := runReplicaReads(addrB, clients, seedKeys/seeders, 300*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("replica reads: %w", err)
	}
	res.ReplicaReadOpsPerSec = float64(reads.ops) / reads.seconds
	res.ReplicaReadP99Us = reads.p99Us

	// Failover: the primary disappears, the replica is promoted, and the
	// outage is over when the new primary acknowledges a write.
	if err := srvA.Close(); err != nil {
		return nil, fmt.Errorf("stopping primary: %w", err)
	}
	failStart := time.Now()
	if err := srvB.Promote(); err != nil {
		return nil, fmt.Errorf("promote: %w", err)
	}
	ctl, err := newBenchConn(addrB)
	if err != nil {
		return nil, err
	}
	defer ctl.close()
	for {
		rep, err := ctl.cmd("SET 424242 1")
		if err != nil {
			return nil, fmt.Errorf("post-promote write: %w", err)
		}
		if rep == "+OK" {
			break
		}
		if !server.IsRetryableReply(rep) {
			return nil, fmt.Errorf("post-promote write = %q", rep)
		}
		time.Sleep(time.Millisecond)
	}
	res.FailoverSeconds = time.Since(failStart).Seconds()
	return res, nil
}

// waitDrained polls until the replica's lag is zero frames with at least
// one sync completed — the pair is converged and idle.
func waitDrained(replica *server.Server, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st := replica.ReplicaStatus()
		lag := replica.ReplLag()
		if (st.FullSyncs > 0 || st.FramesApplied > 0) && lag.Frames == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica never drained: %d frames behind after %s", lag.Frames, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runReplicaReads drives serial GETs of known seeded keys from `clients`
// connections against the replica for the window, asserting every reply
// is a hit (a replica serving misses for replicated keys is a bug, not a
// measurement).
func runReplicaReads(addr string, clients, keysPerSeeder int, window time.Duration) (loadResult, error) {
	stop := timedStop(window)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []float64
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
			for n := uint64(0); ; n++ {
				select {
				case <-stop:
					mu.Lock()
					lats = append(lats, myLats...)
					mu.Unlock()
					return
				default:
				}
				// The seeders wrote keys (seeder+1)<<40 | i with value
				// key^0x5DEECE66D; read them back in a scattered order.
				seeder := (int(n) + id) % 4
				k := n * 2654435761 % uint64(keysPerSeeder)
				key := uint64(seeder+1)<<40 | k
				opStart := time.Now()
				rep, err := c.cmd(fmt.Sprintf("GET %d", key))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("reader %d: %w", id, err)
					}
					mu.Unlock()
					return
				}
				if want := fmt.Sprintf(":%d", key^0x5DEECE66D); rep != want {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("reader %d: GET %d = %q, want %q", id, key, rep, want)
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
		return loadResult{}, fmt.Errorf("read window closed before any op completed")
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
	}, nil
}

// PrintReplication renders the replication measurement.
func PrintReplication(w io.Writer, r *ReplicationResult) {
	fmt.Fprintf(w, "replication (%d clients, %d seed keys):\n", r.Clients, r.SeedKeys)
	fmt.Fprintf(w, "  bootstrap          %8.3f s\n", r.BootstrapSeconds)
	fmt.Fprintf(w, "  primary writes     %8.0f ops/sec (p99 %.1f µs)\n", r.WriteOpsPerSec, r.WriteP99Us)
	fmt.Fprintf(w, "  max lag            %8d frames / %d bytes (catch-up %.3f s, steady %d)\n",
		r.MaxLagFrames, r.MaxLagBytes, r.CatchupSeconds, r.SteadyLagFrames)
	fmt.Fprintf(w, "  replica reads      %8.0f ops/sec (p99 %.1f µs)\n", r.ReplicaReadOpsPerSec, r.ReplicaReadP99Us)
	fmt.Fprintf(w, "  failover           %8.3f s (PROMOTE -> first acked write)\n", r.FailoverSeconds)
}
