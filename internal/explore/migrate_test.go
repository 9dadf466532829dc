package explore

import (
	"strings"
	"testing"

	"corundum/internal/workloads"
)

// TestMigrateCampaign runs the exhaustive power-cut sweep of a scripted
// 1->2 shard split at a budget small enough for CI: every top-level
// device op is cut, with one nested cut allowed during each recovery.
// Any key lost, duplicated, or torn across the split is a violation.
func TestMigrateCampaign(t *testing.T) {
	cfg := MigrateConfig{
		Keys:         10,
		Buckets:      8,
		BatchBuckets: 4,
		Depth:        1,
		Log:          t.Logf,
	}
	if testing.Short() || raceEnabled {
		// Top-level cuts only, bounded: the nested-recovery depth costs a
		// near-complete recovery enumeration per unique image, which the
		// race detector's slowdown turns into minutes. CI's migrate job
		// runs the full race-enabled sweep through the CLI.
		cfg.Depth = -1
		cfg.MaxPoints = 400
	}
	res, err := RunMigrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if len(res.Violations) > 0 {
		t.FailNow()
	}
	if res.TotalOps == 0 || res.ExploredPoints == 0 {
		t.Fatalf("campaign enumerated nothing (ops=%d points=%d)", res.TotalOps, res.ExploredPoints)
	}
	st := res.Stats
	if st.CrashPoints.Load() != res.ExploredPoints {
		t.Fatalf("processed %d of %d crash points", st.CrashPoints.Load(), res.ExploredPoints)
	}
	if st.Explored.Load() == 0 {
		t.Fatal("no terminal state was ever verified")
	}
	if cfg.Depth >= 1 && st.RecoveryCrashes.Load() == 0 {
		t.Fatal("depth 1 requested but no nested recovery crash fired")
	}
	t.Logf("ops=%d points=%d explored=%d pruned=%d recoveryCrashes=%d",
		res.TotalOps, res.ExploredPoints, st.Explored.Load(), st.Pruned.Load(), st.RecoveryCrashes.Load())
	if cfg.Depth == 1 {
		// The full sweep's census is pinned: every reboot in it runs the
		// server's boot decision (workloads.RecoverBoot), so a change to
		// that decision, or to what it writes, moves these numbers.
		got := [4]uint64{res.TotalOps, st.Explored.Load(), st.Pruned.Load(), st.RecoveryCrashes.Load()}
		if want := [4]uint64{3068, 3009, 6178, 6119}; got != want {
			t.Fatalf("census {ops, terminal states, pruned, nested recovery crashes} = %v, want %v", got, want)
		}
	}
}

// TestMigrateCampaignDeep exercises depth-2 nesting (cuts during the
// recovery of a recovery) over a trimmed point budget.
func TestMigrateCampaignDeep(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("depth-2 sweep skipped in -short and under race (CI's migrate job runs it via the CLI)")
	}
	res, err := RunMigrate(MigrateConfig{
		Keys:         8,
		Buckets:      8,
		BatchBuckets: 4,
		Depth:        2,
		MaxPoints:    120,
		Log:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if res.Stats.Explored.Load() == 0 {
		t.Fatal("no terminal state was ever verified")
	}
}

// lostKey is the migrate script with a planted recovery bug: every
// reboot resumes the split and then deletes the first seeded key.
type lostKey struct{ *migration }

func (l lostKey) reboot(mc *machine) (migrated, error) {
	st, err := l.migration.reboot(mc)
	if err != nil {
		return st, err
	}
	const k = 11 // the first seeded key
	_, err = st.kvs[workloads.ShardFor(k, 2)].Delete(k)
	return st, err
}

// TestMigrateCatchesLostKey proves the migrate verdict fails closed: a
// reboot that loses one seeded key must surface as a violation whose
// flight dump covers both shards of the machine.
func TestMigrateCatchesLostKey(t *testing.T) {
	cfg := MigrateConfig{Keys: 6}.withDefaults()
	g, imgs, err := newMigration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &sweep[migrated]{sc: lostKey{g}, pristine: imgs, depth: -1, limit: 40, maxViolations: 2}
	if err := s.start(); err != nil {
		t.Fatal(err)
	}
	s.run(s.point)
	viols, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) == 0 {
		t.Fatal("a reboot that loses a seeded key was not detected")
	}
	v := viols[0]
	if !strings.Contains(v.Err.Error(), "keys after migration") {
		t.Errorf("violation does not name the lost key: %v", v)
	}
	for _, want := range []string{"shard 0:", "shard 1:", "CRASH"} {
		if !strings.Contains(v.Flight, want) {
			t.Errorf("flight dump lacks %q:\n%s", want, v.Flight)
		}
	}
}
