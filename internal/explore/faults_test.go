package explore

import (
	"encoding/binary"
	"strings"
	"testing"

	"corundum/internal/obs"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// TestFaultsCampaignNoSilentCorruption is the no-silent-corruption
// invariant, end to end: every torn-word schedule recovers to a
// linearizable state, and every at-rest bit flip is masked, repaired, or
// loudly detected — never silently wrong. The campaign is deterministic
// (seeded per crash point), so a pass here is a pass everywhere.
func TestFaultsCampaignNoSilentCorruption(t *testing.T) {
	st := &FaultsStats{}
	reg := obs.NewRegistry()
	res, err := RunFaults(FaultsConfig{
		Workload:      "kvstore",
		Steps:         6,
		TornBudget:    8,
		FlipsPerPoint: 3,
		PointStride:   7,
		Workers:       4,
		Stats:         st,
		Registry:      reg,
		Log:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v\nflight:\n%s", v, v.Flight)
	}
	if n := st.Violations.Load(); n != 0 {
		t.Fatalf("%d fault-model violations", n)
	}

	if res.Points == 0 || st.CrashPoints.Load() != res.Points {
		t.Fatalf("processed %d of %d crash points", st.CrashPoints.Load(), res.Points)
	}
	if st.TornSchedules.Load() == 0 {
		t.Error("no torn schedules applied")
	}
	wantFlips := res.Points * 3
	if got := st.BitFlips.Load(); got != wantFlips {
		t.Errorf("BitFlips = %d, want %d", got, wantFlips)
	}
	if res.Media.BitFlips != wantFlips {
		t.Errorf("device media counters saw %d flips, want %d", res.Media.BitFlips, wantFlips)
	}
	// Detection must actually fire: with flips biased toward nonzero
	// (allocated) bytes, at least one probe lands where CRCs or mirrors
	// notice it. A campaign where nothing is ever detected is not probing.
	if st.Repaired.Load()+st.Detected.Load() == 0 {
		t.Error("no flip was ever repaired or detected — probes are missing the metadata")
	}

	// Conservation: every applied outcome is accounted for exactly once.
	verified := st.TornSchedules.Load() - st.TornPruned.Load()
	if got, want := st.Masked.Load()+st.Repaired.Load()+st.Detected.Load(), verified+st.BitFlips.Load(); got != want {
		t.Errorf("outcome accounting: masked+repaired+detected = %d, want %d (verified torn %d + flips %d)",
			got, want, verified, st.BitFlips.Load())
	}

	// The registry serves the campaign counters live.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"explore_faults_crash_points_total",
		"explore_faults_torn_schedules_total",
		"explore_faults_bit_flips_total",
		"explore_faults_violations_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("registry output missing %q", want)
		}
	}
}

// TestJournalDirFlipsNeverSilent is the regression test for the
// journal-directory checksum hole: it flips every bit of every byte of a
// live directory slot in a post-crash image and holds each outcome to
// the campaign's rot contract. Because the slot is a checksummed mirror
// word plus zero padding, every flip must be flagged — repaired through
// the self-healing open path or loudly detected — and never masked
// (which would mean the directory is unprotected again) and never
// silent.
func TestJournalDirFlipsNeverSilent(t *testing.T) {
	w, s, mc := armedFixture(t, Config{Workload: "kvstore", Steps: 6})

	gdev := pmem.New(len(s.pristine[0]), pmem.Options{TrackCrash: true})
	gdev.RestoreDurable(s.pristine[0])
	targets, err := pool.FlipTargets(gdev)
	if err != nil {
		t.Fatal(err)
	}
	// FlipTargets orders ranges header, journal directory, arenas, heap.
	dir := targets[1]
	if dir.Len == 0 || dir.Len%pmem.CacheLineSize != 0 {
		t.Fatalf("unexpected journal directory range %+v", dir)
	}

	m := s.total / 2 // mid-workload: journals have run, the directory is live
	acked, crashed, err := s.replay(mc, m)
	if err != nil || !crashed {
		t.Fatalf("arming crash point %d: crashed=%v err=%v", m, crashed, err)
	}
	dev := mc.devs[0]
	dev.Crash()
	rest := dev.DurableSnapshot()

	// Pick a slot whose mirror has seen a transaction (nonzero state/epoch
	// bits); the checksum makes even the idle slots protected, but the
	// regression is about a LIVE slot.
	const slotSize = pmem.CacheLineSize
	slot := uint64(0)
	for off := uint64(0); off+slotSize <= dir.Len; off += slotSize {
		if binary.LittleEndian.Uint32(rest[dir.Off+off:]) != 0 {
			slot = off
			break
		}
	}
	if binary.LittleEndian.Uint32(rest[dir.Off+slot:]) == 0 {
		t.Fatalf("no live directory slot after %d acked steps", acked)
	}

	for b := uint64(0); b < slotSize; b++ {
		off := dir.Off + slot + b
		for bit := uint8(0); bit < 8; bit++ {
			switch w.classifyFlip(dev, rest, off, bit, acked) {
			case flipRepaired, flipDetected:
			case flipMasked:
				t.Errorf("slot byte %d bit %d: flip masked — the directory slot is not fully covered", b, bit)
			case flipSilent:
				t.Fatalf("slot byte %d bit %d: SILENT corruption", b, bit)
			}
		}
	}
}

// TestSlabLedgerFlipsNeverSilent aims the rot contract at the slab
// ledger specifically: the churn workload under tiny slab tuning leaves
// parked-block entries (and possibly an in-flight claim) in the ledger
// at the crash point, and every bit of every nonzero ledger byte is
// flipped in the post-crash image. Ledger entries are CRC-gated and
// replay discards what fails — at worst the block quietly returns to
// the free space on a later recovery pass — so each flip must classify
// as masked, repaired, or detected. Silent data corruption from ledger
// damage would mean the CRC gate leaks free-space state into user data.
func TestSlabLedgerFlipsNeverSilent(t *testing.T) {
	w, s, mc := armedFixture(t, Config{Workload: "allocheavy", Steps: 8, SlabRefill: 2, SlabCap: 2})

	// The ledger spans are a pure function of the image's geometry.
	gdev := pmem.New(len(s.pristine[0]), pmem.Options{TrackCrash: true})
	gdev.RestoreDurable(s.pristine[0])
	gp, err := pool.Attach(gdev)
	if err != nil {
		t.Fatal(err)
	}
	var ledgers []pool.Range
	for i := 0; i < gp.Journals(); i++ {
		ledgers = append(ledgers, gp.ArenaLedgerRange(i))
	}
	dev := mc.devs[0]

	// Find a crash point whose durable image has live ledger entries:
	// walk back from late in the workload until one shows nonzero bytes.
	var rest []byte
	var acked int
	nonzero := 0
	for _, frac := range []uint64{7, 6, 5, 4, 3} {
		m := s.total * frac / 8
		a, crashed, err := s.replay(mc, m)
		if err != nil || !crashed {
			t.Fatalf("arming crash point %d: crashed=%v err=%v", m, crashed, err)
		}
		dev.Crash()
		img := dev.DurableSnapshot()
		n := 0
		for _, r := range ledgers {
			for _, b := range img[r.Off : r.Off+r.Len] {
				if b != 0 {
					n++
				}
			}
		}
		if n > 0 {
			rest, acked, nonzero = img, a, n
			break
		}
	}
	if rest == nil {
		t.Fatal("no crash point left live ledger entries — the churn script is not parking blocks")
	}
	t.Logf("crash image has %d nonzero ledger bytes after %d acked steps", nonzero, acked)

	flips := 0
	for _, r := range ledgers {
		for rel := uint64(0); rel < r.Len; rel++ {
			off := r.Off + rel
			// Every bit of live entries; a sparse sample of the zero gaps
			// (a flip there forges a partial entry, which the CRC must
			// also reject).
			step := uint8(1)
			if rest[off] == 0 {
				if rel%64 != 0 {
					continue
				}
				step = 4
			}
			for bit := uint8(0); bit < 8; bit += step {
				flips++
				if w.classifyFlip(dev, rest, off, bit, acked) == flipSilent {
					t.Fatalf("ledger byte %#x bit %d: SILENT corruption", off, bit)
				}
			}
		}
	}
	if flips == 0 {
		t.Fatal("no flips were applied")
	}
	t.Logf("%d ledger flips, none silent", flips)
}

// armedFixture builds the exhaust script for cfg, runs the core's census
// over it, and returns a machine to replay crash points on.
func armedFixture(t *testing.T, cfg Config) (*steps, *sweep[*pool.Pool], *machine) {
	t.Helper()
	w, imgs, err := newSteps(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	s := &sweep[*pool.Pool]{sc: w, pristine: imgs, depth: -1}
	if err := s.start(); err != nil {
		t.Fatal(err)
	}
	return w, s, newMachine(imgs)
}

// TestTornEnumeration pins the schedule decoder: flattening candidates
// and re-assembling masks from an index must cover every subset exactly
// once and round-trip each word to its source line.
func TestTornEnumeration(t *testing.T) {
	cands := []pmem.TornLine{{Line: 3, Mask: 0b101}, {Line: 9, Mask: 0b10}}
	bits := flattenTorn(cands)
	if len(bits) != 3 {
		t.Fatalf("flattened %d bits, want 3", len(bits))
	}
	seen := map[[2]uint8]bool{}
	for idx := uint64(0); idx < 1<<3; idx++ {
		m := masksForIndex(bits, idx)
		if m[3]&^uint8(0b101) != 0 || m[9]&^uint8(0b10) != 0 {
			t.Fatalf("index %d set words outside candidate masks: %v", idx, m)
		}
		key := [2]uint8{m[3], m[9]}
		if seen[key] {
			t.Fatalf("index %d repeats outcome %v", idx, m)
		}
		seen[key] = true
	}
	if len(seen) != 8 {
		t.Fatalf("enumerated %d distinct outcomes, want 8", len(seen))
	}
}
