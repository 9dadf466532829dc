// Command corundum-server serves a persistent key-value store over a
// RESP-like line protocol, backed by one or more Corundum pools.
//
//	corundum-server -pool kv.pool [-addr :6380] [-shards 1] [-size 256MiB-bytes]
//	                [-journals 16] [-max-batch 64]
//	                [-busy-timeout 100ms] [-metrics-addr :9100]
//
// On startup every shard pool is opened (created and formatted if its
// file does not exist), crash recovery runs on all shards concurrently,
// and each heap is consistency-checked; only then does the server start
// accepting connections. SET and DEL requests from all connections are
// group-committed per shard: the mutations that queue up while a shard's
// previous transaction commits (up to -max-batch) go into its next
// failure-atomic transaction — the committer never waits on a clock for
// more — and each request is acknowledged only after its transaction is
// durably committed. Each shard's store is a hash table whose bucket
// directory grows with its keys: a batch that leaves more keys than
// buckets splits bucket groups inside its own transaction, so a GET walks
// about one entry however many keys the store holds, and no flag sizes
// the directory. INFO and STATS expose pool geometry, store shape
// (store_keys, store_buckets), recovery counts, journal occupancy, the
// batch-size histogram, and the emulated device's write/flush/fence
// counters (including per-scope fence attribution), with per-shard
// breakdowns when sharded. With -metrics-addr the same numbers are served as
// Prometheus text on GET /metrics, alongside net/http/pprof.
//
// Every op is traced by default (-trace-sample 1): its latency is
// decomposed into queue/journal/fence/apply/ack phases, the SLOWLOG
// admin command lists the slowest recent ops with their breakdown, and
// GET /debug/trace on the metrics address exports recent traces as
// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
// -trace-sample N traces every Nth op; -trace-sample -1 disables
// tracing. Tracing every op is measured, not free: a pipelined GET costs
// a median 1.28x its untraced time (BenchmarkServeGET in internal/server,
// 2-vCPU Xeon VM). Recovery emits a phased timeline (fsck, heap-open,
// journal-replay, claim-resolution, publish) per shard in the startup
// log, INFO, and pool_recovery_seconds metrics.
//
// With -shards N (N > 1) the keyspace is hash-partitioned across N
// independent pools stored as "<pool>.<i>". Shards share nothing: each
// has its own journals, allocator arenas, and group-commit batcher, so
// throughput scales with shards and a shard that fails to open or
// recover is fenced — its keyspace slice answers -READONLY — while
// every other shard serves normally.
//
// The shard count is a durable property of the deployment, not of the
// command line: the first boot commits -shards into the cluster config
// on shard 0, and every later boot discovers the committed layout from
// the pool files themselves (ignoring a disagreeing -shards). The
// RESHARD N admin command changes it online — keys migrate between
// pools in small crash-atomic batches while traffic keeps being served;
// writes to a key mid-move answer -MOVED <shard> (retryable:
// client.Retry). New shard pools are created as "<pool>.<i>".
// A crash or SIGTERM mid-migration parks it at a durable cursor; the
// next boot resumes it automatically. BACKUP <file> streams a
// CRC-framed, crash-consistent snapshot of the whole keyspace to a file
// while mutations continue; RESTORE <file> validates the file end to
// end, then atomically replaces the keyspace with the snapshot (a crash
// mid-restore wipes to empty at next boot rather than serving a blend).
//
// -repl-listen serves the replication stream: every committed batch is
// shipped, in commit order, to any replicas that connect, with
// heartbeats, lag accounting, and snapshot bootstrap for empty or
// too-far-behind replicas. -replica-of <host:port> starts this server as
// a read-only replica of a primary's -repl-listen address: GET/SCAN
// serve locally, mutations answer -READONLY <primary-addr>, and the
// replica resumes from its durable cursor across crashes of either
// side. The REPLICAOF, PROMOTE, and REPLINFO admin commands drive
// failover at runtime: PROMOTE fences the old epoch durably and starts
// accepting writes (and serving the stream if -repl-listen was given);
// the deposed primary is refused by epoch check when it rejoins and
// re-syncs as a replica.
//
// When every journal slot stays busy for longer than -busy-timeout the
// affected request is answered with -BUSY, a retryable backpressure
// signal (clients: client.Retry backs off with jitter). On SIGTERM or
// SIGINT the server stops accepting, drains the group-commit batchers
// and then the replication stream — connected replicas are at zero lag
// before exit — and closes the pools cleanly.
//
// Startup uses pool.OpenRepair per shard: a cleanly recoverable image
// opens as usual; an image with at-rest media damage is repaired from
// its header and root-slot mirrors, journal-directory checksums, and
// allocator checksums where possible, and otherwise opens DEGRADED —
// reads keep working, mutations answer -READONLY, and the damaged
// ranges are quarantined. The SCRUB admin command runs an online media
// scrub across all shards (metadata mirrors, allocator checksums, a
// verified walk of every store) and reports what it found and repaired.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":6380", "listen address")
		path     = flag.String("pool", "corundum.pool", "pool file (created if absent); shard i uses <pool>.<i> when -shards > 1")
		shards   = flag.Int("shards", 1, "hash-partition the keyspace across this many independent pools")
		size     = flag.Int("size", 256<<20, "per-shard pool size in bytes when creating")
		journals = flag.Int("journals", 16, "journal slots per shard (transaction concurrency) when creating")
		maxBatch = flag.Int("max-batch", 64, "max mutations per group-commit transaction")
		busyTO   = flag.Duration("busy-timeout", 100*time.Millisecond, "max wait for a journal slot before replying -BUSY (0 blocks forever)")
		profile  = flag.String("profile", "NoDelay", "emulated PM latency profile: OptaneDC|DRAM|NoDelay")
		metrics  = flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text), /debug/trace, and /debug/pprof on this address, e.g. :9100")
		traceSmp = flag.Int("trace-sample", 1, "op-trace sampling: 1 traces every op, N every Nth, -1 disables tracing")
		replLn   = flag.String("repl-listen", "", "serve the replication stream to replicas on this address, e.g. :6381")
		replOf   = flag.String("replica-of", "", "start as a read-only replica of a primary's -repl-listen address")
	)
	flag.Parse()
	if err := run(*addr, *path, *shards, *size, *journals, *maxBatch, *busyTO, *traceSmp, *profile, *metrics, *replLn, *replOf); err != nil {
		fmt.Fprintln(os.Stderr, "corundum-server:", err)
		os.Exit(1)
	}
}

func run(addr, path string, shards, size, journals, maxBatch int, busyTO time.Duration, traceSample int, profName, metricsAddr, replListen, replicaOf string) error {
	var prof pmem.Profile
	switch profName {
	case "OptaneDC":
		prof = pmem.OptaneDC
	case "DRAM":
		prof = pmem.DRAM
	case "NoDelay":
		prof = pmem.NoDelay
	default:
		return fmt.Errorf("unknown profile %q", profName)
	}
	if shards < 1 {
		return fmt.Errorf("-shards %d: need at least one", shards)
	}
	cfg := pool.Config{Size: size, Journals: journals, Mem: pmem.Options{Profile: prof}}

	// Boot discovery: the shard count a deployment is committed to lives
	// in the pools (the cluster config an online RESHARD rewrites), not in
	// -shards. Read it from shard 0 — along with any interrupted
	// migration's manifest, which raises the count to cover the target
	// pools the resume needs — and open exactly that layout. -shards only
	// decides the layout of a fresh deployment.
	lay, err := server.DiscoverLayout(path, shards, cfg.Mem)
	if err != nil {
		return fmt.Errorf("discovering shard layout: %w", err)
	}
	switch {
	case lay.FromFlag:
		// Fresh deployment (or a pool predating cluster configs): -shards
		// decides, and adoptPersistentState commits it.
	case lay.CfgShards != shards:
		fmt.Printf("pools are committed to %d shard(s) (config epoch %d); ignoring -shards %d\n",
			lay.CfgShards, lay.Epoch, shards)
	}
	if m := lay.Resume; m != nil {
		fmt.Printf("interrupted %d->%d migration found (epoch %d, cursor at bucket %d); resuming after recovery\n",
			m.OldN, m.NewN, m.Epoch, m.Cursor)
	}
	for _, stale := range lay.Stale {
		fmt.Printf("WARNING: %s exists but is not part of the committed %d-shard layout (merge leftover?); not opening it\n",
			stale, lay.N)
	}
	shards = lay.N

	// Open (recovering and repairing) or create every shard, all
	// concurrently; no traffic is accepted before recovery completes and
	// the consistency checks in server.NewSharded pass. OpenRepair behaves
	// exactly like Open on a clean image; on a media-damaged one it
	// repairs what mirrors and checksums allow and falls back to degraded
	// read-only serving instead of refusing. A shard that fails to open
	// outright is fenced (-READONLY for its slice) rather than vetoing
	// its siblings — unless it is the only shard.
	paths := lay.Paths
	pools, errs := server.OpenShards(paths, cfg)
	for i, p := range pools {
		switch {
		case p == nil:
			fmt.Printf("WARNING: shard %d (%s) DOWN: %v\n", i, paths[i], errs[i])
			if shards == 1 {
				return errs[i]
			}
		case p.Generation() > 1 || p.RootOff() != 0:
			rb, rf := p.Recovery()
			fmt.Printf("opened pool %s: generation %d, recovery rolled back %d / forward %d txs\n",
				paths[i], p.Generation(), rb, rf)
			if tl := p.RecoveryTimeline(); len(tl) > 0 {
				line := fmt.Sprintf("shard %d recovery timeline: total %.3fms", i, p.RecoverySeconds()*1e3)
				for _, ph := range tl {
					line += fmt.Sprintf(", %s %.3fms", ph.Name, ph.Seconds*1e3)
				}
				fmt.Println(line)
			}
			if p.Degraded() {
				fmt.Printf("WARNING: pool %s is DEGRADED (read-only): %s\n", paths[i], p.DegradedReason())
				for _, r := range p.Quarantine() {
					fmt.Printf("WARNING: quarantined range: off=%d len=%d\n", r.Off, r.Len)
				}
				fmt.Println("WARNING: serving reads; mutations on this shard will be answered -READONLY")
			}
		default:
			fmt.Printf("created pool %s: %d bytes, %d journals\n", paths[i], size, journals)
		}
	}
	defer func() {
		for _, p := range pools {
			if p != nil {
				p.Close()
			}
		}
	}()

	if busyTO == 0 {
		busyTO = -1 // 0 on the command line means "block forever", Options' disable value
	}
	srv, err := server.NewSharded(pools, server.Options{
		MaxBatch:    maxBatch,
		BusyTimeout: busyTO, TraceSample: traceSample,
		// RESHARD grows past the booted pools by creating "<pool>.<i>"
		// files with the same geometry.
		ShardOpener: server.FileShardOpener(path, cfg),
	})
	if err != nil {
		return err
	}
	// Enter the replica role before the source: a node given both flags
	// parks its replication listener until PROMOTE makes it the primary.
	if replicaOf != "" {
		if err := srv.ReplicaOf(replicaOf); err != nil {
			srv.Close()
			return fmt.Errorf("starting as replica of %s: %w", replicaOf, err)
		}
		fmt.Printf("replicating from %s (mutations answer -READONLY; PROMOTE to fail over)\n", replicaOf)
	}
	if replListen != "" {
		rln, err := net.Listen("tcp", replListen)
		if err != nil {
			srv.Close()
			return err
		}
		if err := srv.EnableReplicationSource(rln); err != nil {
			srv.Close()
			return err
		}
		if replicaOf == "" {
			fmt.Printf("replication stream on %s\n", rln.Addr())
		} else {
			fmt.Printf("replication stream on %s (parked until PROMOTE)\n", rln.Addr())
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving on %s (%d shard(s), max-batch %d)\n", ln.Addr(), shards, maxBatch)

	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return err
		}
		defer mln.Close()
		fmt.Printf("metrics on http://%s/metrics\n", mln.Addr())
		go http.Serve(mln, srv.DebugMux())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case <-sig:
		fmt.Println("shutting down: draining in-flight batches")
	case err := <-serveErr:
		if err != nil {
			srv.Close()
			return err
		}
	}
	// Close stops accepting, waits for connection handlers, and drains the
	// group-commit batchers: every acknowledged write is durable before the
	// deferred pool closes flush and release the shards.
	if err := srv.Close(); err != nil {
		return err
	}
	if srv.Halted() {
		return fmt.Errorf("server halted on pool failure")
	}
	fmt.Println("drained; pools closing cleanly")
	return nil
}
