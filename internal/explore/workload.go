package explore

import (
	"fmt"

	"corundum/internal/baselines/engine"
	"corundum/internal/workloads"
)

// structure is the uniform surface exploration drives: one mutation per
// step (a single failure-atomic transaction), plus read-side verification
// against a pure-Go model and any structure-specific invariants.
type structure interface {
	step(op scriptOp) error
	// verify checks the durable contents equal model exactly; the returned
	// error names the first divergence.
	verify(model map[uint64]uint64) error
	// check runs structure-specific invariants (shape, ordering).
	check() error
	// get is a point lookup, used by fault campaigns to probe single keys
	// without requiring a full scan to succeed.
	get(key uint64) (uint64, bool, error)
}

// workloadDef builds a structure on a fresh pool and re-attaches to it
// after a crash.
type workloadDef struct {
	setup  func(p engine.Pool) (structure, error)
	attach func(p engine.Pool) (structure, error)
}

func workloadFor(name string) (workloadDef, error) {
	switch name {
	case "kvstore", "hashmap", "allocheavy", "kvgrow":
		// "allocheavy" and "kvgrow" are the kvstore structure under the
		// allocator-churn and growth scripts (buildChurnScript,
		// buildGrowScript); scriptFor makes the swap.
		return workloadDef{
			setup: func(p engine.Pool) (structure, error) {
				kv, err := workloads.NewKVStore(p, 8)
				return kvStructure{kv}, err
			},
			attach: func(p engine.Pool) (structure, error) {
				kv, err := workloads.AttachKVStore(p)
				return kvStructure{kv}, err
			},
		}, nil
	case "bst":
		return workloadDef{
			setup: func(p engine.Pool) (structure, error) {
				b, err := workloads.NewBST(p)
				return bstStructure{b}, err
			},
			attach: func(p engine.Pool) (structure, error) {
				return bstStructure{workloads.AttachBST(p)}, nil
			},
		}, nil
	case "btree":
		return workloadDef{
			setup: func(p engine.Pool) (structure, error) {
				t, err := workloads.NewBTree(p)
				return btreeStructure{t}, err
			},
			attach: func(p engine.Pool) (structure, error) {
				return btreeStructure{workloads.AttachBTree(p)}, nil
			},
		}, nil
	}
	return workloadDef{}, fmt.Errorf("explore: unknown workload %q (want kvstore, allocheavy, kvgrow, bst, or btree)", name)
}

type kvStructure struct{ kv *workloads.KVStore }

func (s kvStructure) step(op scriptOp) error {
	if op.batch != nil {
		ops := make([]workloads.Op, len(op.batch))
		for i, o := range op.batch {
			ops[i] = workloads.Op{Del: o.del, Key: o.key, Val: o.val}
		}
		_, err := s.kv.Apply(ops)
		return err
	}
	if op.del {
		_, err := s.kv.Delete(op.key)
		return err
	}
	return s.kv.Put(op.key, op.val)
}

func (s kvStructure) verify(model map[uint64]uint64) error {
	got := map[uint64]uint64{}
	if err := s.kv.Scan(func(k, v uint64) bool { got[k] = v; return true }); err != nil {
		return err
	}
	return diffModel(got, model)
}

func (s kvStructure) get(key uint64) (uint64, bool, error) { return s.kv.Get(key) }

// check holds the store to its full integrity walk: every checksum, every
// key in the physical bucket its hash names (so no key is reachable
// twice), every group's key count.
func (s kvStructure) check() error { return s.kv.VerifyIntegrity() }

type bstStructure struct{ b *workloads.BST }

func (s bstStructure) step(op scriptOp) error {
	if op.del {
		_, err := s.b.Remove(op.key)
		return err
	}
	return s.b.Insert(op.key, op.val)
}

func (s bstStructure) verify(model map[uint64]uint64) error {
	return lookupVerify(model, func(k uint64) (uint64, bool, error) { return s.b.Lookup(k) },
		func() (int, error) { return s.b.Size() })
}

func (s bstStructure) get(key uint64) (uint64, bool, error) { return s.b.Lookup(key) }

func (s bstStructure) check() error { _, err := s.b.Size(); return err }

type btreeStructure struct{ t *workloads.BTree }

func (s btreeStructure) step(op scriptOp) error {
	if op.del {
		_, err := s.t.Remove(op.key)
		return err
	}
	return s.t.Insert(op.key, op.val)
}

func (s btreeStructure) verify(model map[uint64]uint64) error {
	got := map[uint64]uint64{}
	if err := s.t.Scan(func(k, v uint64) bool { got[k] = v; return true }); err != nil {
		return err
	}
	return diffModel(got, model)
}

func (s btreeStructure) get(key uint64) (uint64, bool, error) { return s.t.Lookup(key) }

func (s btreeStructure) check() error { return s.t.CheckInvariants() }

// diffModel compares a scanned key→value map against the model.
func diffModel(got, model map[uint64]uint64) error {
	for k, v := range model {
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("key %d missing (want val %d)", k, v)
		}
		if gv != v {
			return fmt.Errorf("key %d = %d, want %d", k, gv, v)
		}
	}
	for k, v := range got {
		if _, ok := model[k]; !ok {
			return fmt.Errorf("phantom key %d = %d", k, v)
		}
	}
	return nil
}

// lookupVerify verifies via point lookups plus a size check, for
// structures without a Scan that returns values (the BST).
func lookupVerify(model map[uint64]uint64, lookup func(uint64) (uint64, bool, error), size func() (int, error)) error {
	for k, v := range model {
		gv, found, err := lookup(k)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("key %d missing (want val %d)", k, v)
		}
		if gv != v {
			return fmt.Errorf("key %d = %d, want %d", k, gv, v)
		}
	}
	n, err := size()
	if err != nil {
		return err
	}
	if n != len(model) {
		return fmt.Errorf("size %d, want %d", n, len(model))
	}
	return nil
}
