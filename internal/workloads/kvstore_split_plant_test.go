package workloads_test

import (
	"testing"

	"corundum/internal/explore"
	"corundum/internal/workloads"
)

// TestExplorerCatchesPlantedSplitBugs plants two splits that are right
// after every completed operation but not crash-atomic — each defers part
// of the split to a second transaction — and requires the exhaustive
// explorer's kvgrow campaign to report a violation for each: a cut
// between the two transactions leaves keys reachable from the wrong
// bucket, or entries whose checksums do not match their links.
func TestExplorerCatchesPlantedSplitBugs(t *testing.T) {
	for _, c := range []struct {
		name string
		bug  int
	}{
		{"publish-before-relink", workloads.SplitPublishBeforeRelink},
		{"moved-crc-later", workloads.SplitMovedCRCLater},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer workloads.PlantSplitBug(c.bug)()
			res, err := explore.Run(explore.Config{Workload: "kvgrow", Depth: -1, MaxViolations: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) == 0 {
				t.Fatalf("planted split bug %s survived all %d crash points", c.name, res.TotalOps)
			}
			t.Logf("caught: %s", res.Violations[0])
		})
	}
}
