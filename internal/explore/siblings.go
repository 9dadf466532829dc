package explore

import (
	"fmt"
	"sync"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// Siblings models the rest of a sharded deployment while a fault
// campaign hammers one shard: N-1 independent in-memory pools, each with
// its own KVStore, each served by a goroutine applying deterministic
// traffic for as long as the campaign runs. Shards share no persistent
// state, so the campaign's injected crashes, torn writes, and bit flips
// on its own device must never disturb a sibling — Stop verifies exactly
// that, by checking every acknowledged sibling write and walking each
// sibling store's integrity.
type Siblings struct {
	pools []*pool.Pool
	kvs   []*workloads.KVStore
	stop  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	errs     []error
	expected []map[uint64]uint64 // per sibling: key -> last acknowledged value
	ops      []uint64            // per sibling: acknowledged mutations
}

// StartSiblings brings up n sibling shards and starts their traffic.
// n == 0 is valid and yields an inert harness (the single-shard case).
func StartSiblings(n int) (*Siblings, error) {
	s := &Siblings{
		pools:    make([]*pool.Pool, n),
		kvs:      make([]*workloads.KVStore, n),
		stop:     make(chan struct{}),
		errs:     make([]error, n),
		expected: make([]map[uint64]uint64, n),
		ops:      make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		p, err := pool.Create("", pool.Config{
			Size:       32 << 20,
			Journals:   4,
			JournalCap: 16 << 10,
		})
		if err != nil {
			return nil, fmt.Errorf("sibling %d: %w", i, err)
		}
		kv, err := workloads.NewKVStore(corundumeng.Wrap(p), 64)
		if err != nil {
			return nil, fmt.Errorf("sibling %d: %w", i, err)
		}
		s.pools[i] = p
		s.kvs[i] = kv
		s.expected[i] = make(map[uint64]uint64)
	}
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.serve(i)
	}
	return s, nil
}

func siblingVal(key, gen uint64) uint64 { return key*0x9E3779B97F4A7C15 + gen + 1 }

// siblingKeys bounds each sibling's keyspace: op seq works on key seq mod
// siblingKeys, so inserts turn into overwrites and re-inserts after the
// first lap, and a sibling's pool never fills however long the campaign
// runs.
const siblingKeys = 1 << 12

func siblingKey(i int, seq uint64) uint64 { return uint64(i+1)<<40 | seq%siblingKeys }

// serve applies an endless deterministic mix to one sibling: inserts,
// periodic overwrites, periodic deletes, and read-back checks of keys
// already acknowledged. A mismatch observed here means the campaign
// corrupted a shard it had no business touching, while it was live.
func (s *Siblings) serve(i int) {
	defer s.wg.Done()
	kv := s.kvs[i]
	exp := s.expected[i]
	var seq uint64
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		key := siblingKey(i, seq)
		switch {
		case seq%7 == 3 && seq > 8: // overwrite an older key
			old := siblingKey(i, seq-8)
			if _, ok := exp[old]; ok {
				if err := kv.Put(old, siblingVal(old, seq)); err != nil {
					s.fail(i, fmt.Errorf("overwrite %#x: %w", old, err))
					return
				}
				exp[old] = siblingVal(old, seq)
				s.ops[i]++
			}
		case seq%13 == 5 && seq > 16: // delete an older key
			old := siblingKey(i, seq-16)
			if _, ok := exp[old]; ok {
				if _, err := kv.Delete(old); err != nil {
					s.fail(i, fmt.Errorf("delete %#x: %w", old, err))
					return
				}
				delete(exp, old)
				s.ops[i]++
			}
		default:
			if err := kv.Put(key, siblingVal(key, 0)); err != nil {
				s.fail(i, fmt.Errorf("put %#x: %w", key, err))
				return
			}
			exp[key] = siblingVal(key, 0)
			s.ops[i]++
		}
		if seq%5 == 4 && seq > 4 { // read back a recent acknowledged key
			probe := siblingKey(i, seq-4)
			if want, ok := exp[probe]; ok {
				got, found, err := kv.Get(probe)
				if err != nil {
					s.fail(i, fmt.Errorf("get %#x: %w", probe, err))
					return
				}
				if !found || got != want {
					s.fail(i, fmt.Errorf("get %#x: got (%#x,%v), want %#x — sibling disturbed while campaign ran", probe, got, found, want))
					return
				}
			}
		}
		seq++
	}
}

func (s *Siblings) fail(i int, err error) {
	s.mu.Lock()
	s.errs[i] = err
	s.mu.Unlock()
}

// SiblingsReport summarizes what the siblings did and survived.
type SiblingsReport struct {
	Shards int
	Ops    uint64 // acknowledged mutations across all siblings
	Keys   int    // live keys verified at stop
}

// Stop halts the traffic, then verifies every sibling end to end: each
// acknowledged key holds exactly its last acknowledged value, deleted
// keys are absent, and each store passes its integrity walk. Any
// discrepancy is a cross-shard isolation violation.
func (s *Siblings) Stop() (SiblingsReport, error) {
	close(s.stop)
	s.wg.Wait()
	rep := SiblingsReport{Shards: len(s.pools)}
	var firstErr error
	for i, kv := range s.kvs {
		if err := s.errs[i]; err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sibling %d: %w", i, err)
		}
		rep.Ops += s.ops[i]
		for key, want := range s.expected[i] {
			got, found, err := kv.Get(key)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("sibling %d: get %#x: %w", i, key, err)
				}
				continue
			}
			if !found || got != want {
				if firstErr == nil {
					firstErr = fmt.Errorf("sibling %d: key %#x: got (%#x,%v), want %#x", i, key, got, found, want)
				}
				continue
			}
			rep.Keys++
		}
		if err := kv.VerifyIntegrity(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sibling %d: integrity: %w", i, err)
		}
		if err := s.pools[i].CheckConsistency(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sibling %d: consistency: %w", i, err)
		}
	}
	for _, p := range s.pools {
		p.Close()
	}
	return rep, firstErr
}
