package explore

import (
	"testing"
)

// TestReplChaosCampaign runs the replication chaos rotation: link cuts,
// a replica power cut mid-apply, a promotion under load, a power cut
// mid-bootstrap, and a primary power cut, with readers on the replica —
// each round ending in byte-exact convergence and histcheck's verdict on
// what the writer and the readers observed. CI's repl job runs the full rotation race-enabled via the CLI;
// here short/race builds trim to the first three scenarios.
func TestReplChaosCampaign(t *testing.T) {
	cfg := NetConfig{
		Rounds:         len(replScenarios),
		WritesPerRound: 160,
		Log:            t.Logf,
	}
	if testing.Short() || raceEnabled {
		cfg.Rounds = 3 // linkcut, replica-crash, promote
		cfg.WritesPerRound = 120
	}
	res, err := RunRepl(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if len(res.Violations) > 0 {
		t.FailNow()
	}
	st := res.Stats
	if st.Rounds.Load() != uint64(cfg.Rounds) {
		t.Fatalf("completed %d rounds, want %d", st.Rounds.Load(), cfg.Rounds)
	}
	if st.Acked.Load() == 0 {
		t.Fatal("no client write was ever acknowledged")
	}
	if st.Reads.Load() == 0 || st.ScanPairs.Load() == 0 {
		t.Fatalf("replica read coverage hole: reads=%d scanPairs=%d", st.Reads.Load(), st.ScanPairs.Load())
	}
	if st.LinkCuts.Load() == 0 || st.ReplicaCrashes.Load() == 0 || st.Promotes.Load() == 0 {
		t.Fatalf("scenario coverage hole: cuts=%d replicaCrashes=%d promotes=%d",
			st.LinkCuts.Load(), st.ReplicaCrashes.Load(), st.Promotes.Load())
	}
	if cfg.Rounds >= 5 && (st.BootstrapCrashes.Load() == 0 || st.PrimaryCrashes.Load() == 0) {
		t.Fatalf("scenario coverage hole: bootstrapCrashes=%d primaryCrashes=%d",
			st.BootstrapCrashes.Load(), st.PrimaryCrashes.Load())
	}
	t.Logf("rounds=%d acked=%d reads=%d scanPairs=%d cuts=%d replicaCrashes=%d bootstrapCrashes=%d primaryCrashes=%d promotes=%d reboots=%d",
		st.Rounds.Load(), st.Acked.Load(), st.Reads.Load(), st.ScanPairs.Load(), st.LinkCuts.Load(), st.ReplicaCrashes.Load(),
		st.BootstrapCrashes.Load(), st.PrimaryCrashes.Load(), st.Promotes.Load(), st.Reboots.Load())
}
