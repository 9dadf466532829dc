package explore

// A workload script is a fixed, deterministic sequence of single-mutation
// steps; exhaustive exploration cuts power at every device op the sequence
// issues. Each step is one failure-atomic transaction, so after a crash at
// any point during step s the recovered state must equal the model after s
// steps (the transaction rolled back) or after s+1 (it had passed its
// commit point).
//
// The pattern — put, put, overwrite, delete — exercises allocation,
// in-place update (undo-log data entries), and free (drop logs applied at
// commit, reclaimed by recovery on rollback). Every step changes the
// abstract state, so the per-step models are pairwise distinct; that is
// what makes durable-hash pruning sound (a durable image determines a
// unique recovered state, hence a unique step count it can belong to).
type scriptOp struct {
	del      bool
	key, val uint64
	// batch, when set, makes the step one failure-atomic batch of these
	// ops (KVStore.Apply) instead of a single mutation.
	batch []scriptOp
}

// ops lists the mutations the step applies, in order.
func (op scriptOp) ops() []scriptOp {
	if op.batch != nil {
		return op.batch
	}
	return []scriptOp{op}
}

// buildScript returns the step sequence and models[0..steps], where
// models[k] is the expected key→value map after k completed steps.
func buildScript(steps int) ([]scriptOp, []map[uint64]uint64) {
	ops := make([]scriptOp, steps)
	for i := 0; i < steps; i++ {
		group := uint64(i / 4) // each group of 4 works on two fresh keys
		k0 := group*2 + 1
		k1 := group*2 + 2
		switch i % 4 {
		case 0:
			ops[i] = scriptOp{key: k0, val: uint64(i)*1000 + 11}
		case 1:
			ops[i] = scriptOp{key: k1, val: uint64(i)*1000 + 11}
		case 2:
			ops[i] = scriptOp{key: k0, val: uint64(i)*1000 + 77} // overwrite
		case 3:
			ops[i] = scriptOp{del: true, key: k0}
		}
	}
	return ops, foldModels(ops)
}

// buildChurnScript is the allocator-campaign variant: every group of 4
// is put k0, put k1, delete k0, re-put k0 — a delete immediately
// followed by a same-size-class insert, so with a warm (or tiny-tuned)
// slab cache the window covers park (the delete's entry block), claim
// (the re-put consumes it), refill (the fresh puts), and spill (caps of
// 1–2 overflow on the second park). Every step still changes the
// abstract state — the re-put's value differs and k1 accumulates — so
// the models stay pairwise distinct and durable-hash pruning stays
// sound.
func buildChurnScript(steps int) ([]scriptOp, []map[uint64]uint64) {
	ops := make([]scriptOp, steps)
	for i := 0; i < steps; i++ {
		group := uint64(i / 4)
		k0 := group*2 + 1
		k1 := group*2 + 2
		switch i % 4 {
		case 0:
			ops[i] = scriptOp{key: k0, val: uint64(i)*1000 + 13}
		case 1:
			ops[i] = scriptOp{key: k1, val: uint64(i)*1000 + 13}
		case 2:
			ops[i] = scriptOp{del: true, key: k0}
		case 3:
			ops[i] = scriptOp{key: k0, val: uint64(i)*1000 + 91} // re-insert: claims the parked block
		}
	}
	return ops, foldModels(ops)
}

// buildGrowScript is the growth campaign's script over a base-8 store
// (workload "kvgrow"): steps of {deletes, overwrites, fresh puts} sized so
// the default 8 steps cross two levels (8 → 16 → 32 buckets), allocate
// three segments and move the segment table once. Batches fill the
// directory to exactly one key per bucket; each split then rides a
// single Put, which keeps the largest transaction — and so the deepest
// rollback every nested recovery cut replays — small. Every third fresh
// key shares all 40 low bits with key 1, so that chain always moves whole
// while the others split and relink.
func buildGrowScript(steps int) ([]scriptOp, []map[uint64]uint64) {
	shape := [8]struct{ del, over, put int }{
		{0, 0, 8}, {0, 0, 1}, {1, 1, 7}, {0, 0, 1}, {0, 0, 1}, {0, 0, 7}, {0, 0, 1}, {1, 0, 0},
	}
	var live []uint64 // oldest first
	fresh := uint64(0)
	ops := make([]scriptOp, steps)
	for i := range ops {
		sh := shape[i%len(shape)]
		val := uint64(i+1) * 1000
		var batch []scriptOp
		for range sh.del {
			batch = append(batch, scriptOp{del: true, key: live[0]})
			live = live[1:]
		}
		for range sh.over {
			batch = append(batch, scriptOp{key: live[len(live)-1], val: val + 500})
		}
		for j := range sh.put {
			fresh++
			k := fresh
			if fresh%3 == 0 {
				k = fresh<<40 | 1
			}
			batch = append(batch, scriptOp{key: k, val: val + uint64(j)})
			live = append(live, k)
		}
		if len(batch) == 1 {
			ops[i] = batch[0]
		} else {
			ops[i] = scriptOp{batch: batch}
		}
	}
	return ops, foldModels(ops)
}

// scriptFor selects the step sequence for a workload name: the
// "allocheavy" alias runs the kvstore structure under the churn script,
// and "kvgrow" runs it under the growth script.
func scriptFor(workload string, steps int) ([]scriptOp, []map[uint64]uint64) {
	switch workload {
	case "allocheavy":
		return buildChurnScript(steps)
	case "kvgrow":
		return buildGrowScript(steps)
	}
	return buildScript(steps)
}

// foldModels derives models[0..len(ops)] by folding the script over the
// empty map.
func foldModels(ops []scriptOp) []map[uint64]uint64 {
	models := make([]map[uint64]uint64, len(ops)+1)
	models[0] = map[uint64]uint64{}
	for i, op := range ops {
		m := make(map[uint64]uint64, len(models[i])+1)
		for k, v := range models[i] {
			m[k] = v
		}
		for _, o := range op.ops() {
			if o.del {
				delete(m, o.key)
			} else {
				m[o.key] = o.val
			}
		}
		models[i+1] = m
	}
	return models
}
