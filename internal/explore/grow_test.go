package explore

import (
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/workloads"
)

// TestGrowScriptCrossesLevels pins what the kvgrow campaign explores: its
// default script drives a base-8 store across two levels (to 32 buckets),
// allocating three segments (the third moves the segment table), and
// every step changes the abstract state.
func TestGrowScriptCrossesLevels(t *testing.T) {
	ops, models := scriptFor("kvgrow", 8)
	p, err := createPool(512 << 10)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	kv, err := workloads.NewKVStore(corundumeng.Wrap(p), 8)
	if err != nil {
		t.Fatal(err)
	}
	st := kvStructure{kv}
	for i, op := range ops {
		if err := st.step(op); err != nil {
			t.Fatal(err)
		}
		if err := st.verify(models[i+1]); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if diffModel(models[i], models[i+1]) == nil {
			t.Fatalf("step %d leaves the model unchanged", i)
		}
	}
	if err := st.check(); err != nil {
		t.Fatal(err)
	}
	if keys, buckets := kv.Shape(); buckets < 32 || keys != uint64(len(models[len(ops)])) {
		t.Fatalf("script ends at (%d keys, %d buckets), want >= 32 buckets", keys, buckets)
	}
}

// TestExhaustiveKVGrow sweeps every crash point of the growth script,
// with nested recovery cuts outside the race detector.
func TestExhaustiveKVGrow(t *testing.T) {
	cfg := Config{Workload: "kvgrow", Depth: 1}
	if raceEnabled || testing.Short() {
		cfg.Depth = -1
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s\nflight:\n%s", v, v.Flight)
	}
	if res.Stats.Explored.Load() == 0 {
		t.Fatal("nothing was verified")
	}
}
