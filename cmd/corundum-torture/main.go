// Command corundum-torture runs crash-injection campaigns against the
// library in one of two modes.
//
// Random mode (the default) is the paper's testing methodology: random
// transactions over persistent structures, power cut at random device
// operations (sometimes with adversarial cache eviction), recovery, and
// verification that every acknowledged transaction survived and every
// interrupted one is all-or-nothing.
//
//	corundum-torture [-seeds N] [-iterations N] [-workers N]
//
// It is one campaign whose serial mode is -workers 1 (the default): one
// transaction in flight at a time. With -workers N>1, N goroutines
// transact concurrently on the same pool and the power cut lands while
// several journals are active — the configuration that stresses
// sharded-journal recovery.
//
// Exhaust mode enumerates EVERY device operation of a fixed workload as a
// crash point — no sampling — recovers from each, and verifies
// linearizability of acknowledged steps plus heap/fsck invariants. It
// additionally injects crashes DURING recovery, nested to -depth, and
// optionally replays each crash point with adversarial cache eviction:
//
//	corundum-torture -mode exhaust [-workload kvstore|allocheavy|kvgrow|bst|btree] [-depth K]
//	                 [-steps N] [-evict-seeds N] [-workers N] [-dump-dir D]
//
// Faults mode drops below fail-stop: at every crash point (subsampled by
// -stride) it explores word-granularity torn writes — every combination
// of at-risk 8-byte words when the space fits -torn-budget, a bracketed
// seeded sweep otherwise — and injects at-rest bit flips into long-lived
// media, asserting the no-silent-corruption invariant: every fault is
// masked, repaired, or loudly detected (refusal, degraded mode, or a
// data-corruption error), never silently wrong:
//
//	corundum-torture -mode faults [-workload kvstore|kvgrow] [-steps N]
//	                 [-stride N] [-torn-budget N] [-flips N]
//	                 [-workers N] [-dump-dir D]
//
// Migrate mode exhaustively power-cuts a scripted 1->2 shard split: every
// device op of the migration protocol (manifest publication, per-batch
// copies, the source hand-off transaction, the config commit) across both
// pools is a crash point, each recovered-and-resumed — with nested cuts
// during the recovery itself to -depth — and every terminal state must
// hold each key exactly once at its new home:
//
//	corundum-torture -mode migrate [-depth K] [-mig-keys N] [-mig-batch W]
//	                 [-max-points N] [-workers N] [-dump-dir D]
//
// Repl mode runs the replication chaos rotation on live primary/replica
// pairs under a real client write stream, with readers on the replica:
// link cuts, a replica power cut mid-apply, a promotion under load, a
// power cut mid-bootstrap, and a primary power cut — each round must end
// in byte-exact convergence. Readers mode runs the reader-vs-crash
// campaign: reader connections hammer GET/SCAN through the seqlock
// lock-free read path while a churn stream overwrites, deletes, and
// allocates underneath them and injected power cuts land mid-commit; the
// rebooted server must serve lock-free reads again. Both judge what
// their clients observed by one contract, per-key durable
// linearizability (DESIGN §5.3): no torn or phantom value, no read of a
// commit a power cut rolled back, no acknowledged write of the surviving
// epoch lost, the deposed epoch's surviving as a clean prefix of ack
// order. -rounds and -writes of 0 take the mode's default (repl 10 and
// 200, readers 6 and 400):
//
//	corundum-torture -mode repl|readers [-rounds N] [-writes N]
//	                 [-reader-clients N] [-seed S]
//
// In exhaust and faults modes, -shards N emulates an N-shard deployment:
// the campaign crashes shard 0 over and over while shards 1..N-1 serve
// live KV traffic on their own independent pools. When the campaign
// finishes, every sibling's acknowledged write is re-verified and its
// store walked — a crash, torn write, or bit flip on shard i must never
// block or corrupt shard j.
//
// Exit code 1 means a consistency violation was found (a bug); in exhaust,
// faults and migrate modes each violation's flight-recorder dump is
// written under -dump-dir. Exit code 2 is flag misuse or a sweep that
// was not exhaustive.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"corundum/internal/explore"
	"corundum/internal/torture"
)

func main() {
	mode := flag.String("mode", "random", "campaign mode: random | exhaust | faults | migrate | repl | readers")
	seeds := flag.Int("seeds", 8, "random mode: number of independent campaigns")
	iterations := flag.Int("iterations", 500, "random mode: transactions per campaign")
	workers := flag.Int("workers", 0, fmt.Sprintf("goroutines (random mode: 1..%d concurrent transactions, default 1; exhaust/faults/migrate modes: crash-point shards, default GOMAXPROCS)", torture.MaxWorkers))
	workload := flag.String("workload", "kvstore", "exhaust/faults mode: structure under test (kvstore | allocheavy | kvgrow | bst | btree)")
	depth := flag.Int("depth", 2, "exhaust/migrate mode: nested crashes injected during recovery (0 = none)")
	steps := flag.Int("steps", 8, "exhaust/faults mode: script mutations to enumerate crash points over")
	evictSeeds := flag.Int("evict-seeds", 0, "exhaust mode: additionally replay each crash point with eviction seeds 1..N")
	dumpDir := flag.String("dump-dir", "", "exhaust/faults/migrate mode: write flight-recorder dumps for violations into this directory")
	stride := flag.Int("stride", 1, "faults mode: explore every stride-th crash point")
	tornBudget := flag.Int("torn-budget", 16, "faults mode: max torn-word schedules per crash point")
	slabRefill := flag.Int("slab-refill", 0, "exhaust mode: slab refill batch size (0 = pool default, -1 = disable the cache)")
	slabCap := flag.Int("slab-cap", 0, "exhaust mode: parked blocks per class before a spill (0 = pool default)")
	flips := flag.Int("flips", 4, "faults mode: bit flips probed per crash point")
	migKeys := flag.Int("mig-keys", 12, "migrate mode: keys seeded on the source shard")
	migBatch := flag.Int("mig-batch", 4, "migrate mode: buckets moved per crash-atomic batch")
	maxPoints := flag.Int("max-points", 0, "migrate mode: explore only the first N top-level crash points (0 = all) — the CI budget knob")
	rounds := flag.Int("rounds", 0, "repl/readers mode: rounds, rotating the mode's scenarios (0 = two full rotations: repl 10, readers 6)")
	writes := flag.Int("writes", 0, "repl/readers mode: client writes per round (0 = repl 200, readers 400)")
	readerClients := flag.Int("reader-clients", 0, "repl/readers mode: concurrent reader connections (0 = 8)")
	seed := flag.Int64("seed", 0, "repl/readers mode: campaign randomness seed (0 = 1)")
	shards := flag.Int("shards", 1, "exhaust/faults mode: run the campaign on shard 0 of an N-shard deployment; shards 1..N-1 serve live traffic throughout and are verified at the end")
	flag.Parse()

	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "corundum-torture: -shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	switch *mode {
	case "random":
		runRandom(*seeds, *iterations, *workers)
	case "exhaust":
		sib := startSiblings(*shards - 1)
		runExhaust(*workload, *depth, *steps, *evictSeeds, *workers, *slabRefill, *slabCap, *dumpDir)
		stopSiblings(sib)
	case "faults":
		sib := startSiblings(*shards - 1)
		runFaults(*workload, *steps, *stride, *tornBudget, *flips, *workers, *dumpDir)
		stopSiblings(sib)
	case "migrate":
		runMigrate(*migKeys, *migBatch, *depth, *maxPoints, *workers, *dumpDir)
	case "repl", "readers":
		runNet(*mode, explore.NetConfig{Rounds: *rounds, WritesPerRound: *writes, Readers: *readerClients, Seed: *seed,
			Log: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "  "+format+"\n", args...) }})
	default:
		fmt.Fprintf(os.Stderr, "corundum-torture: unknown -mode %q (want random, exhaust, faults, migrate, repl, or readers)\n", *mode)
		os.Exit(2)
	}
}

// startSiblings brings up the other shards of an emulated N-shard
// deployment. They serve deterministic KV traffic on their own pools for
// the whole campaign: the campaign's crashes, torn writes, and bit flips
// all land on shard 0's device, and the siblings prove the blast radius
// stops there.
func startSiblings(n int) *explore.Siblings {
	if n <= 0 {
		return nil
	}
	sib, err := explore.StartSiblings(n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corundum-torture: starting %d sibling shards: %v\n", n, err)
		os.Exit(2)
	}
	fmt.Printf("sibling shards: %d serving live traffic alongside the campaign\n", n)
	return sib
}

// stopSiblings verifies the sibling shards after the campaign. Note the
// campaign exits the process directly on violations; siblings are only
// checked when shard 0's campaign itself came out clean.
func stopSiblings(sib *explore.Siblings) {
	if sib == nil {
		return
	}
	rep, err := sib.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "corundum-torture: CROSS-SHARD ISOLATION VIOLATION: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("OK: %d sibling shards served %d mutations during the campaign; all %d live keys verified, integrity clean\n",
		rep.Shards, rep.Ops, rep.Keys)
}

func runRandom(seeds, iterations, workers int) {
	if workers == 0 {
		workers = 1
	}
	if workers < 1 || workers > torture.MaxWorkers {
		fmt.Fprintf(os.Stderr, "corundum-torture: -workers must be in [1,%d], got %d\n", torture.MaxWorkers, workers)
		os.Exit(2)
	}
	start := time.Now()
	totalCrashes := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		res, err := torture.Campaign(seed, iterations, workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "corundum-torture: seed %d: CONSISTENCY VIOLATION: %v\n", seed, err)
			os.Exit(1)
		}
		totalCrashes += res.Crashes
		fmt.Printf("seed %-3d %5d txs, %4d crashes (%4d rolled back, %3d rolled forward, %3d evicting), map=%d\n",
			seed, res.Iterations, res.Crashes, res.RolledBack, res.RolledFwd, res.Evictions, res.FinalMapLen)
	}
	modeName := "serial"
	if workers > 1 {
		modeName = fmt.Sprintf("%d workers", workers)
	}
	fmt.Printf("OK: %d campaigns (%s), %d injected crashes, all recoveries consistent (%.1fs)\n",
		seeds, modeName, totalCrashes, time.Since(start).Seconds())
}

func runExhaust(workload string, depth, steps, evictSeeds, workers, slabRefill, slabCap int, dumpDir string) {
	st := &explore.Stats{}
	cfg := explore.Config{
		Workload:      workload,
		Steps:         steps,
		Depth:         depth,
		EvictionSeeds: evictSeeds,
		Workers:       workers,
		SlabRefill:    slabRefill,
		SlabCap:       slabCap,
		Stats:         st,
	}
	if depth == 0 {
		cfg.Depth = -1 // Config treats 0 as "default"; the CLI's 0 means none
	}
	// The sweep can take a while at higher depths, so show the counters
	// advancing.
	stop := progress(func() string {
		return fmt.Sprintf("%d/%d crash points (%d recovered+verified, %d pruned, %d recovery crashes, %d evictions)",
			st.CrashPoints.Load(), st.TotalOps.Load(), st.Explored.Load(),
			st.Pruned.Load(), st.RecoveryCrashes.Load(), st.Evictions.Load())
	})
	start := time.Now()
	res, err := explore.Run(cfg)
	stop()
	exitOnError("exhaust", err)

	fmt.Printf("workload %s: %d ops, %d fences, %d steps\n", workload, res.TotalOps, len(res.FenceOps), res.Steps)
	for i, n := range res.IntervalPoints {
		fmt.Printf("  fence interval %-2d %4d crash points\n", i, n)
	}
	fmt.Printf("explored %d states (%d pruned by durable-image hash), %d recovery crashes, %d eviction variants (%.1fs)\n",
		st.Explored.Load(), st.Pruned.Load(), st.RecoveryCrashes.Load(), st.Evictions.Load(), time.Since(start).Seconds())
	exitOnViolations("exhaust", "", res.Violations, dumpDir)
	fmt.Printf("OK: all %d crash points recover consistently\n", res.TotalOps)
}

func runFaults(workload string, steps, stride, tornBudget, flips, workers int, dumpDir string) {
	st := &explore.FaultsStats{}
	cfg := explore.FaultsConfig{
		Workload:      workload,
		Steps:         steps,
		PointStride:   stride,
		TornBudget:    tornBudget,
		FlipsPerPoint: flips,
		Workers:       workers,
		Stats:         st,
	}
	stop := progress(func() string {
		return fmt.Sprintf("%d crash points (%d torn schedules, %d flips; %d masked, %d repaired, %d detected)",
			st.CrashPoints.Load(), st.TornSchedules.Load(), st.BitFlips.Load(),
			st.Masked.Load(), st.Repaired.Load(), st.Detected.Load())
	})
	start := time.Now()
	res, err := explore.RunFaults(cfg)
	stop()
	exitOnError("faults", err)

	fmt.Printf("workload %s: %d ops, %d crash points visited (stride %d)\n", workload, res.TotalOps, res.Points, stride)
	fmt.Printf("torn: %d schedules (%d pruned), %d lines actually tore, %d words persisted out of order\n",
		st.TornSchedules.Load(), st.TornPruned.Load(), res.Media.TornLines, res.Media.TornWords)
	fmt.Printf("rot:  %d bit flips — %d masked+%d repaired+%d detected (%.1fs)\n",
		st.BitFlips.Load(), st.Masked.Load(), st.Repaired.Load(), st.Detected.Load(), time.Since(start).Seconds())
	exitOnViolations("faults", " — silent corruption or torn recovery failure", res.Violations, dumpDir)
	fmt.Printf("OK: no silent corruption — every injected fault was masked, repaired, or detected\n")
}

func runMigrate(keys, batch, depth, maxPoints, workers int, dumpDir string) {
	st := &explore.Stats{}
	cfg := explore.MigrateConfig{
		Keys:         keys,
		BatchBuckets: batch,
		Depth:        depth,
		MaxPoints:    maxPoints,
		Workers:      workers,
		Stats:        st,
	}
	if depth == 0 {
		cfg.Depth = -1 // MigrateConfig treats 0 as "default"; the CLI's 0 means none
	}
	stop := progress(func() string {
		return fmt.Sprintf("%d/%d crash points (%d recovered+verified, %d pruned, %d recovery crashes)",
			st.CrashPoints.Load(), st.TotalOps.Load(), st.Explored.Load(),
			st.Pruned.Load(), st.RecoveryCrashes.Load())
	})
	start := time.Now()
	res, err := explore.RunMigrate(cfg)
	stop()
	exitOnError("migrate", err)

	fmt.Printf("migration: %d keys, 1->2 split, %d device ops across both pools, %d crash points enumerated\n",
		res.Keys, res.TotalOps, res.ExploredPoints)
	fmt.Printf("explored %d terminal states (%d pruned by durable-image-pair hash), %d nested recovery crashes (%.1fs)\n",
		st.Explored.Load(), st.Pruned.Load(), st.RecoveryCrashes.Load(), time.Since(start).Seconds())
	exitOnViolations("migrate", " — keys lost, duplicated, or torn across the split", res.Violations, dumpDir)
	fmt.Printf("OK: every power cut resumes to a completed migration with all %d keys intact\n", res.Keys)
}

// runNet runs the repl or readers campaign; cfg's zero fields take the
// campaign's defaults.
func runNet(mode string, cfg explore.NetConfig) {
	start := time.Now()
	if mode == "repl" {
		res, err := explore.RunRepl(cfg)
		exitOnError(mode, err)
		st := res.Stats
		fmt.Printf("repl chaos: %d rounds, %d writes acked, %d replica reads; %d link cuts, %d replica crashes, %d bootstrap crashes, %d primary crashes, %d promotions, %d reboots (%.1fs)\n",
			st.Rounds.Load(), st.Acked.Load(), st.Reads.Load()+st.ScanPairs.Load(), st.LinkCuts.Load(), st.ReplicaCrashes.Load(),
			st.BootstrapCrashes.Load(), st.PrimaryCrashes.Load(), st.Promotes.Load(),
			st.Reboots.Load(), time.Since(start).Seconds())
		exitOnViolations(mode, " — the history broke the client-visible contract", res.Violations, "")
		fmt.Printf("OK: every round converged byte-exact with zero acked-write loss on the surviving epoch\n")
		return
	}
	res, err := explore.RunReaders(cfg)
	exitOnError(mode, err)
	st := res.Stats
	fmt.Printf("reader-vs-crash: %d rounds, %d writes acked; %d GETs + %d SCAN pairs verified, %d power cuts, %d reboots, %d lock-free reads, %d retries, %d fallbacks (%.1fs)\n",
		st.Rounds.Load(), st.Acked.Load(), st.Reads.Load(), st.ScanPairs.Load(),
		st.Crashes.Load(), st.Reboots.Load(), st.LockFreeReads.Load(),
		st.ReadRetries.Load(), st.Fallbacks.Load(), time.Since(start).Seconds())
	exitOnViolations(mode, " — the history broke the client-visible contract", res.Violations, "")
	fmt.Printf("OK: no reader ever observed torn, phantom, or uncommitted state; every acked write survived\n")
}

// progress prints line() to stderr once a second until the returned stop
// is called.
func progress(line func() string) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Fprintf(os.Stderr, "  ... %s\n", line())
			}
		}
	}()
	return func() { close(done); <-finished }
}

// exitOnError ends the run with exit code 2 on an infrastructure failure,
// including a sweep that was not exhaustive.
func exitOnError(mode string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "corundum-torture: %s: %v\n", mode, err)
		os.Exit(2)
	}
}

// exitOnViolations reports every violation — writing its flight-recorder
// dump under dumpDir, for the campaigns that record one — and ends the
// run with exit code 1 when there is any.
func exitOnViolations[V any](mode, what string, vs []V, dumpDir string) {
	if len(vs) == 0 {
		return
	}
	for i, v := range vs {
		fmt.Fprintf(os.Stderr, "corundum-torture: VIOLATION: %v\n", v)
		if ev, ok := any(v).(explore.Violation); ok && dumpDir != "" {
			writeFlightDump(dumpDir, i, ev)
		}
	}
	fmt.Fprintf(os.Stderr, "corundum-torture: %s: %d violations%s\n", mode, len(vs), what)
	os.Exit(1)
}

// writeFlightDump names the file after the crash point and trail so a
// human can replay the exact schedule from the name alone.
func writeFlightDump(dir string, i int, v explore.Violation) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "corundum-torture: dump dir: %v\n", err)
		return
	}
	name := fmt.Sprintf("violation-%02d-crash%d", i, v.CrashPoint)
	for _, r := range v.Trail {
		name += fmt.Sprintf("-rec%d", r)
	}
	if v.EvictSeed != 0 {
		name += fmt.Sprintf("-evict%d", v.EvictSeed)
	}
	path := filepath.Join(dir, name+".flight")
	body := v.String() + "\n\n" + strings.TrimRight(v.Flight, "\n") + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "corundum-torture: write %s: %v\n", path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "corundum-torture: flight dump written to %s\n", path)
}
