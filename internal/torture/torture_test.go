package torture

import "testing"

// TestConcurrentCampaigns runs crash campaigns with several goroutines
// transacting on the same pool: crashes land while multiple journals are
// in flight, and recovery must leave every worker's shard exactly
// pre- or post-transaction.
func TestConcurrentCampaigns(t *testing.T) {
	workerCounts := []int{2, 4, 8}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, workers := range workerCounts {
		for seed := int64(1); seed <= 2; seed++ {
			res, err := Campaign(seed, 200, workers)
			if err != nil {
				t.Fatalf("workers %d seed %d: %v", workers, seed, err)
			}
			if res.Crashes == 0 {
				t.Errorf("workers %d seed %d: campaign never crashed; injection broken?", workers, seed)
			}
			t.Logf("workers %d seed %d: %d txs attempted, %d crashes (%d rolled back, %d rolled forward, %d with eviction), %d keys",
				workers, seed, res.Iterations, res.Crashes, res.RolledBack, res.RolledFwd, res.Evictions, res.FinalMapLen)
		}
	}
}

// TestCampaigns runs several deterministic serial (one-worker) crash
// campaigns. Any torn state, corruption, or lost acknowledged transaction
// fails the test, and with one transaction in flight every crash must
// resolve to exactly one rollback or roll-forward.
func TestCampaigns(t *testing.T) {
	seeds, iterations := int64(4), 150
	if testing.Short() {
		seeds, iterations = 2, 75
	}
	for seed := int64(1); seed <= seeds; seed++ {
		res, err := Campaign(seed, iterations, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Crashes == 0 {
			t.Errorf("seed %d: campaign never crashed; injection broken?", seed)
		}
		if res.RolledBack+res.RolledFwd != res.Crashes {
			t.Errorf("seed %d: crash accounting off: %d+%d != %d",
				seed, res.RolledBack, res.RolledFwd, res.Crashes)
		}
		t.Logf("seed %d: %d iterations, %d crashes (%d rolled back, %d rolled forward, %d with eviction), final map %d keys",
			seed, res.Iterations, res.Crashes, res.RolledBack, res.RolledFwd, res.Evictions, res.FinalMapLen)
	}
}
