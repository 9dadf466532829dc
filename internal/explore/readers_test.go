package explore

import (
	"testing"
)

// TestReaderCrashCampaign runs the reader-vs-crash rotation: readers
// hammer GET/SCAN through the seqlock path while power cuts land
// mid-commit, each crash round ending in a reboot whose reads join the
// history, and a steady round reading the whole keyspace back quietly;
// histcheck judges every round. CI's
// readers job runs a longer campaign race-enabled via the CLI; here
// short/race builds trim to one crash round plus the steady round.
func TestReaderCrashCampaign(t *testing.T) {
	cfg := NetConfig{
		Rounds:         len(readerScenarios),
		WritesPerRound: 300,
		Log:            t.Logf,
	}
	if testing.Short() || raceEnabled {
		cfg.Rounds = 2 // crash-mid, steady
		cfg.WritesPerRound = 200
	}
	res, err := RunReaders(cfg)
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
	if st.Crashes.Load() == 0 || st.Reboots.Load() == 0 {
		t.Fatalf("crash coverage hole: crashes=%d reboots=%d", st.Crashes.Load(), st.Reboots.Load())
	}
	if st.Reads.Load() == 0 || st.ScanPairs.Load() == 0 {
		t.Fatalf("read coverage hole: reads=%d scanPairs=%d", st.Reads.Load(), st.ScanPairs.Load())
	}
	if st.LockFreeReads.Load() == 0 {
		t.Fatal("campaign never exercised the seqlock path")
	}
	t.Logf("rounds=%d acked=%d reads=%d scanPairs=%d crashes=%d reboots=%d lockfree=%d retries=%d fallbacks=%d",
		st.Rounds.Load(), st.Acked.Load(), st.Reads.Load(), st.ScanPairs.Load(),
		st.Crashes.Load(), st.Reboots.Load(), st.LockFreeReads.Load(),
		st.ReadRetries.Load(), st.Fallbacks.Load())
}
