package explore

import "testing"

// TestNestedCensusRepeatsAcrossWorkers: with nested recovery cuts and
// more workers than cores, which worker meets a shared image first varies
// run to run. Pruning keyed by image and remaining depth makes every
// count independent of that order (keyed by image alone, this test fails
// within a few runs).
func TestNestedCensusRepeatsAcrossWorkers(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("three depth-2 sweeps; CI's campaign steps repeat the full census")
	}
	cfg := Config{Workload: "kvstore", Steps: 3, Depth: 2, Workers: 4}
	counts := func() [3]uint64 {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("violation: %s", res.Violations[0])
		}
		return [3]uint64{res.Stats.Explored.Load(), res.Stats.Pruned.Load(), res.Stats.RecoveryCrashes.Load()}
	}
	first := counts()
	for run := 2; run <= 3; run++ {
		if got := counts(); got != first {
			t.Fatalf("run %d counted {explored, pruned, recovery crashes} = %v, run 1 %v", run, got, first)
		}
	}
}
