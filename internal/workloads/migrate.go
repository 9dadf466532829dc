package workloads

import (
	"fmt"
	"sync/atomic"
)

// MovedError reports that a key's owner is (or is becoming) another
// shard: the caller should retry against Shard. Servers surface it as a
// "-MOVED <shard>" reply; it is retryable, never a data error.
type MovedError struct{ Shard int }

func (e MovedError) Error() string { return fmt.Sprintf("moved to shard %d", e.Shard) }

// Coordinator is what the Resharder needs from the serving layer to move
// keys out from under live traffic: per-shard reader/writer sections
// (the same sections the server's group-commit batchers run every Apply
// in) and a write barrier that flushes every mutation enqueued before
// the barrier into the store. Tests that migrate quiesced stores use
// NopCoordinator.
type Coordinator interface {
	// Read runs fn as one verified read of shard's store, Write as one
	// mutation of it. Either section always ends: a panic out of fn (a
	// power cut) may instead return as an error once the serving layer
	// has failed the shard.
	Read(shard int, fn func() error) error
	Write(shard int, fn func() error) error
	// Barrier returns once every mutation submitted to shard before the
	// call is durably committed (group-commit queue drained up to here).
	Barrier(shard int) error
}

// NopCoordinator coordinates nothing: for single-threaded tests and the
// crash-exploration campaign, where no concurrent traffic exists. A
// panic out of fn propagates.
type NopCoordinator struct{}

func (NopCoordinator) Read(_ int, fn func() error) error  { return fn() }
func (NopCoordinator) Write(_ int, fn func() error) error { return fn() }
func (NopCoordinator) Barrier(int) error                  { return nil }

// fenceWindow is the published in-flight batch window: writes landing on
// shard Src in bucket range [Lo, Hi) whose new-layout home is elsewhere
// are refused with MovedError while the batch moves.
type fenceWindow struct {
	Src    int
	Lo, Hi uint64
}

// Resharder is the crash-safe online migration engine: it moves every
// key whose splitmix64 home differs between an oldN-shard and a
// newN-shard layout, in small crash-atomic batches, while the shards
// keep serving. All persistent state lives in the per-shard manifests
// (see manifest.go); the Resharder itself is reconstructible from them
// at any moment, which is exactly what a post-power-cut boot does.
type Resharder struct {
	stores []*KVStore // index = shard id; nil = shard down
	oldN   int
	newN   int
	epoch  uint64 // the config epoch this migration commits
	batchW uint64 // bucket-window width per batch
	coord  Coordinator

	// cursors[s] mirrors the durable manifest cursor of source shard s:
	// keys hashing below it have moved to their new home. Advanced only
	// inside the source's write lock, so ownership answers are stable
	// under a read lock.
	cursors []atomic.Uint64
	fence   atomic.Pointer[fenceWindow]

	movedKeys atomic.Uint64
	batches   atomic.Uint64
}

// NewResharder builds the engine over stores (indexed by shard id, at
// least max(oldN, newN) long, nil entries for down shards). epoch is the
// config epoch the migration will commit — callers pass current+1 for a
// fresh move, or the manifest's epoch when attaching. batchBuckets is
// the bucket-window width per crash-atomic batch (min 1).
func NewResharder(stores []*KVStore, oldN, newN int, epoch uint64, batchBuckets int, coord Coordinator) (*Resharder, error) {
	if oldN < 1 || newN < 1 {
		return nil, fmt.Errorf("reshard: shard counts must be positive (old %d, new %d)", oldN, newN)
	}
	if len(stores) < max(oldN, newN) {
		return nil, fmt.Errorf("reshard: %d stores for max(%d, %d) shards", len(stores), oldN, newN)
	}
	if batchBuckets < 1 {
		batchBuckets = 1
	}
	if coord == nil {
		coord = NopCoordinator{}
	}
	return &Resharder{
		stores:  stores,
		oldN:    oldN,
		newN:    newN,
		epoch:   epoch,
		batchW:  uint64(batchBuckets),
		coord:   coord,
		cursors: make([]atomic.Uint64, len(stores)),
	}, nil
}

// Epoch reports the config epoch this migration commits.
func (rs *Resharder) Epoch() uint64 { return rs.epoch }

// Shape reports the before/after shard counts.
func (rs *Resharder) Shape() (oldN, newN int) { return rs.oldN, rs.newN }

// Init durably publishes the migration: every source shard gets a
// cursor-0 manifest, shard 0 first so that any later boot discovers the
// move from pool 0 alone. Crashing mid-Init is safe in both directions:
// no manifest on shard 0 means the migration never started (RESHARD was
// not acknowledged), and missing manifests on later sources are
// re-created by Attach at cursor 0.
func (rs *Resharder) Init() error {
	for s := 0; s < rs.oldN; s++ {
		if rs.stores[s] == nil {
			return fmt.Errorf("reshard: source shard %d is down", s)
		}
		m := &Manifest{Kind: ManifestReshard, Epoch: rs.epoch, OldN: uint64(rs.oldN), NewN: uint64(rs.newN)}
		err := rs.coord.Write(s, func() error { return rs.stores[s].WriteManifest(m) })
		if err != nil {
			return fmt.Errorf("reshard: publishing manifest on shard %d: %w", s, err)
		}
	}
	return nil
}

// Attach reloads cursors from the durable manifests (resume after a
// restart or power cut). Sources whose manifest is missing — a cut
// during Init — restart at cursor 0 and get their manifest re-created.
// A down source leaves its cursor at 0: ownership answers for its keys
// then route to the down shard, whose serving layer refuses loudly,
// which is the correct "cannot know" answer.
func (rs *Resharder) Attach() error {
	for s := 0; s < rs.oldN; s++ {
		if rs.stores[s] == nil {
			continue
		}
		m, err := rs.stores[s].ReadManifest()
		if err != nil {
			return fmt.Errorf("reshard: reading manifest on shard %d: %w", s, err)
		}
		if m == nil || m.Epoch != rs.epoch || m.Kind != ManifestReshard {
			m = &Manifest{Kind: ManifestReshard, Epoch: rs.epoch, OldN: uint64(rs.oldN), NewN: uint64(rs.newN)}
			err := rs.coord.Write(s, func() error { return rs.stores[s].WriteManifest(m) })
			if err != nil {
				return fmt.Errorf("reshard: re-publishing manifest on shard %d: %w", s, err)
			}
		}
		if m.OldN != uint64(rs.oldN) || m.NewN != uint64(rs.newN) {
			return fmt.Errorf("reshard: shard %d manifest shape %d->%d, expected %d->%d",
				s, m.OldN, m.NewN, rs.oldN, rs.newN)
		}
		rs.cursors[s].Store(m.Cursor)
	}
	return nil
}

// Owner answers which shard serves key right now. Keys whose old- and
// new-layout homes agree never move. For moving keys the source shard's
// cursor decides: buckets below it have been handed over, buckets at or
// above it still answer at the source. Cursors only advance inside the
// source's write lock, so an Owner answer taken under a shard's read
// lock cannot be invalidated while that lock is held.
func (rs *Resharder) Owner(key uint64) int {
	src := ShardFor(key, rs.oldN)
	dst := ShardFor(key, rs.newN)
	if src == dst {
		return src
	}
	st := rs.stores[src]
	if st != nil && st.Bucket(key) < rs.cursors[src].Load() {
		return dst
	}
	return src
}

// CheckWrite vets a mutation of key arriving at shard: it refuses (with
// MovedError) keys owned elsewhere and keys inside the published fence
// window — the batch currently mid-move — so no write can land at the
// source between the batch scan and the source-side delete.
func (rs *Resharder) CheckWrite(shard int, key uint64) error {
	if f := rs.fence.Load(); f != nil && f.Src == shard {
		st := rs.stores[shard]
		if st != nil {
			if b := st.Bucket(key); b >= f.Lo && b < f.Hi {
				if dst := ShardFor(key, rs.newN); dst != shard {
					return MovedError{Shard: dst}
				}
			}
		}
	}
	if o := rs.Owner(key); o != shard {
		return MovedError{Shard: o}
	}
	return nil
}

// Done reports whether every source shard's cursor has passed its last
// bucket — all keys are at their new homes, only the config commit
// (Finish) remains.
func (rs *Resharder) Done() bool {
	for s := 0; s < rs.oldN; s++ {
		st := rs.stores[s]
		if st == nil {
			return false
		}
		if rs.cursors[s].Load() < st.Buckets() {
			return false
		}
	}
	return true
}

// Progress reports moved-key and batch counters plus per-source cursor
// fractions, for INFO/STATS and metrics.
func (rs *Resharder) Progress() (movedKeys, batches uint64, fraction float64) {
	var done, total uint64
	for s := 0; s < rs.oldN; s++ {
		if st := rs.stores[s]; st != nil {
			c := rs.cursors[s].Load()
			if c > st.Buckets() {
				c = st.Buckets()
			}
			done += c
			total += st.Buckets()
		}
	}
	if total > 0 {
		fraction = float64(done) / float64(total)
	}
	return rs.movedKeys.Load(), rs.batches.Load(), fraction
}

// Step migrates one crash-atomic batch from source shard s and reports
// whether s is fully migrated. The protocol per batch:
//
//  1. Publish the fence window [cursor, cursor+W) and barrier the
//     source: every mutation enqueued before the fence is committed and
//     visible to the scan; every one after is refused with -MOVED.
//  2. Scan the window under the read lock, collecting keys whose
//     new-layout home differs, with their current values.
//  3. Durably record those keys — merged with any keys recorded by a
//     previous (crashed) attempt at this window — in the source
//     manifest, under the write lock, BEFORE any target is touched:
//     whatever happens next, recovery knows exactly which keys might
//     exist at targets and must be reconciled.
//  4. Insert the moved keys at their target shards (one transaction per
//     target, under that target's write lock). Recorded keys no longer
//     present at the source become target deletes — they may have been
//     copied by the crashed attempt and deleted at the source since.
//     Both directions are idempotent, so replaying after a cut is safe.
//  5. In ONE transaction on the source: delete the moved keys and
//     advance the manifest cursor past the window (batch record
//     cleared). The in-memory cursor advances inside the same write
//     lock, so ownership flips atomically with the handover.
//
// A power cut anywhere leaves a state this same function rolls forward:
// before 3 the batch never happened; between 3 and 5 the recorded batch
// is re-reconciled; after 5 the cursor has moved on.
func (rs *Resharder) Step(s int) (done bool, err error) {
	st := rs.stores[s]
	if st == nil {
		return false, fmt.Errorf("reshard: source shard %d is down", s)
	}
	m, err := st.ReadManifest()
	if err != nil {
		return false, err
	}
	if m == nil || m.Kind != ManifestReshard || m.Epoch != rs.epoch {
		return false, fmt.Errorf("reshard: shard %d has no active manifest for epoch %d", s, rs.epoch)
	}
	nb := st.Buckets()
	if m.Cursor >= nb {
		rs.cursors[s].Store(nb)
		return true, nil
	}
	w := rs.batchW
	if m.BatchBuckets > 0 {
		// A previous attempt recorded this window; keep its width so the
		// recorded keys and the re-scan cover the same buckets.
		w = m.BatchBuckets
	}
	lo, hi := m.Cursor, m.Cursor+w
	if hi > nb {
		hi = nb
	}

	rs.fence.Store(&fenceWindow{Src: s, Lo: lo, Hi: hi})
	defer rs.fence.Store(nil)
	if err := rs.coord.Barrier(s); err != nil {
		return false, err
	}

	type kvPair struct{ k, v uint64 }
	var moving []kvPair
	scanErr := rs.coord.Read(s, func() error {
		return st.ScanRange(lo, hi, func(k, v uint64) bool {
			if ShardFor(k, rs.newN) != s {
				moving = append(moving, kvPair{k, v})
			}
			return true
		})
	})
	if scanErr != nil {
		return false, scanErr
	}

	// Merge with keys recorded by a crashed attempt at this same window:
	// recorded keys that vanished from the source since must be deleted
	// at their targets (the crashed attempt may have copied them).
	present := make(map[uint64]bool, len(moving))
	record := make([]uint64, 0, len(moving)+len(m.Batch))
	for _, p := range moving {
		present[p.k] = true
		record = append(record, p.k)
	}
	var stale []uint64
	for _, k := range m.Batch {
		if !present[k] {
			stale = append(stale, k)
			record = append(record, k)
		}
	}

	if len(record) > 0 {
		rec := &Manifest{
			Kind: ManifestReshard, Epoch: rs.epoch,
			OldN: uint64(rs.oldN), NewN: uint64(rs.newN),
			Cursor: m.Cursor, BatchBuckets: hi - lo, Batch: record,
		}
		if err := rs.coord.Write(s, func() error { return st.WriteManifest(rec) }); err != nil {
			return false, err
		}

		// Group the target-side work per destination shard; one
		// failure-atomic transaction each.
		targets := make(map[int][]Op)
		for _, p := range moving {
			dst := ShardFor(p.k, rs.newN)
			targets[dst] = append(targets[dst], Op{Key: p.k, Val: p.v})
		}
		for _, k := range stale {
			dst := ShardFor(k, rs.newN)
			targets[dst] = append(targets[dst], Op{Del: true, Key: k})
		}
		for dst, ops := range targets {
			tst := rs.stores[dst]
			if tst == nil {
				return false, fmt.Errorf("reshard: target shard %d is down", dst)
			}
			err := rs.coord.Write(dst, func() error {
				_, err := tst.Apply(ops)
				return err
			})
			if err != nil {
				return false, fmt.Errorf("reshard: applying batch at shard %d: %w", dst, err)
			}
		}
	}

	// Hand the window over: delete moved keys at the source and advance
	// the durable cursor in one transaction, flipping the in-memory
	// cursor inside the same critical section.
	adv := &Manifest{
		Kind: ManifestReshard, Epoch: rs.epoch,
		OldN: uint64(rs.oldN), NewN: uint64(rs.newN), Cursor: hi,
	}
	dels := make([]Op, 0, len(moving))
	for _, p := range moving {
		dels = append(dels, Op{Del: true, Key: p.k})
	}
	err = rs.coord.Write(s, func() error {
		if _, err := st.ApplyWithManifest(dels, adv); err != nil {
			return err
		}
		rs.cursors[s].Store(hi)
		return nil
	})
	if err != nil {
		return false, err
	}
	rs.movedKeys.Add(uint64(len(moving)))
	rs.batches.Add(1)
	return hi >= nb, nil
}

// Finish commits the migration. The config write on shard 0 is THE
// commit point: it makes every manifest of this epoch stale, so clearing
// them afterwards (and mirroring the new config onto the other surviving
// shards) is mere cleanup — a cut anywhere in Finish re-runs it.
// Callers must only Finish once Done() reports true.
func (rs *Resharder) Finish() error {
	if !rs.Done() {
		return fmt.Errorf("reshard: Finish before all sources are migrated")
	}
	if rs.stores[0] == nil {
		return fmt.Errorf("reshard: shard 0 is down, cannot commit config")
	}
	err := rs.coord.Write(0, func() error { return rs.stores[0].WriteConfig(rs.newN, rs.epoch) })
	if err != nil {
		return fmt.Errorf("reshard: committing config: %w", err)
	}
	for s := 1; s < rs.newN && s < len(rs.stores); s++ {
		if rs.stores[s] == nil {
			continue
		}
		err := rs.coord.Write(s, func() error { return rs.stores[s].WriteConfig(rs.newN, rs.epoch) })
		if err != nil {
			return fmt.Errorf("reshard: mirroring config to shard %d: %w", s, err)
		}
	}
	for s := 0; s < max(rs.oldN, rs.newN); s++ {
		if rs.stores[s] == nil {
			continue
		}
		err := rs.coord.Write(s, rs.stores[s].ClearManifest)
		if err != nil {
			return fmt.Errorf("reshard: clearing manifest on shard %d: %w", s, err)
		}
	}
	return nil
}

// Run drives the migration to completion: batch by batch across every
// source shard, stopping early (cleanly, at a batch boundary, cursor
// durable) when stop closes. It reports whether the migration completed
// — including the Finish commit — so a false return means "resumable
// state left behind", which is exactly what SIGTERM-during-migration
// wants. throttle, when non-nil, runs between batches to bound the
// migration's impact on serving traffic.
func (rs *Resharder) Run(stop <-chan struct{}, throttle func()) (completed bool, err error) {
	for s := 0; s < rs.oldN; s++ {
		for {
			select {
			case <-stop:
				return false, nil
			default:
			}
			done, err := rs.Step(s)
			if err != nil {
				return false, err
			}
			if done {
				break
			}
			if throttle != nil {
				throttle()
			}
		}
	}
	if err := rs.Finish(); err != nil {
		return false, err
	}
	return true, nil
}
