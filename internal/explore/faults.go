// Media-fault campaign: where Run explores fail-stop crashes (clean
// prefix images), RunFaults explores what real persistent memory does
// below fail-stop, at every crash point of the same deterministic
// workload:
//
//   - torn writes: at each crash point the at-risk 8-byte words
//     (TornCandidates) persist in every combination when the schedule
//     space fits TornBudget, and under a seeded sweep bracketed by the
//     none-persist and all-persist endpoints when it does not. Tearing is
//     WITHIN the design's fault model — aligned 8-byte stores are atomic,
//     nothing larger is assumed — so every torn outcome must recover to a
//     state satisfying the same linearizability contract as a plain
//     crash. Anything else is a violation.
//
//   - at-rest bit rot: after a plain crash, single-bit flips are injected
//     into long-lived media (header, root slots, allocator metadata,
//     heap) and the image is reopened through the self-healing path
//     (pool.AttachRepair). Rot is BEYOND the fault model, so the contract
//     is weaker but absolute: the flip may be masked (harmless word),
//     repaired (mirrors/checksums restore it), or detected (refusal,
//     degraded mode, or a data-corruption error on read) — but it must
//     never be SILENT. A verify pass that reports wrong data with no
//     error anywhere is the one unacceptable outcome.
//
// Flips are deliberately not aimed at journal buffers or allocator
// redo-log areas: a flip in an unretired log entry is indistinguishable
// from a torn in-flight append, which the torn-write dimension already
// covers exhaustively; see pool.FlipTargets. The slab ledger IS in
// scope (it sits inside each arena's metadata range): although it is
// transient like the redo log, its entries are individually CRC-gated
// and open-time replay must discard damaged ones — masked or detected,
// never silent (TestSlabLedgerFlipsNeverSilent pins this bit-by-bit).
package explore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/obs"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// FaultsConfig parameterizes one media-fault campaign.
type FaultsConfig struct {
	// Workload selects the structure under test (default "kvstore" — the
	// CRC-protected structure; bst/btree carry no read-side checksums, so
	// heap flips there will honestly report silent-corruption violations).
	Workload string
	// Steps is the number of script mutations (default 8).
	Steps int
	// TornBudget bounds torn schedules per crash point: with n at-risk
	// words, all 2^n outcomes are enumerated when 2^n <= TornBudget,
	// otherwise TornBudget seeded schedules bracketed by the none- and
	// all-persist endpoints (default 16).
	TornBudget int
	// FlipsPerPoint is how many single-bit flips are probed per crash
	// point (default 4).
	FlipsPerPoint int
	// PointStride explores every stride-th crash point; 1 visits all
	// (default 1). Raise it to bound CI time on long workloads.
	PointStride int
	// Workers shards crash points across goroutines (default GOMAXPROCS,
	// capped at 8).
	Workers int
	// PoolSize is the pool footprint (default 4 MiB).
	PoolSize int
	// MaxViolations stops the run after this many failures (default 8).
	MaxViolations int
	// Registry, when set, receives live explore_faults_* counters.
	Registry *obs.Registry
	// Stats, when set, is updated live; otherwise one is allocated.
	Stats *FaultsStats
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (c FaultsConfig) withDefaults() FaultsConfig {
	if c.TornBudget <= 0 {
		c.TornBudget = 16
	}
	if c.FlipsPerPoint <= 0 {
		c.FlipsPerPoint = 4
	}
	return c
}

// FaultsStats are live campaign counters, safe for concurrent reads.
type FaultsStats struct {
	// CrashPoints counts crash points processed (after PointStride).
	CrashPoints atomic.Uint64
	// TornSchedules counts torn crash outcomes applied.
	TornSchedules atomic.Uint64
	// TornPruned counts torn outcomes whose durable image was already seen.
	TornPruned atomic.Uint64
	// BitFlips counts at-rest flips injected.
	BitFlips atomic.Uint64
	// Masked counts outcomes (torn or flip) that recovered to a correct
	// state with nothing to report: the fault landed somewhere harmless or
	// somewhere recovery rewrites anyway.
	Masked atomic.Uint64
	// Repaired counts flips that fsck flagged and the repair path healed:
	// the verified state is correct AND the damage was noticed.
	Repaired atomic.Uint64
	// Detected counts flips answered loudly: attach refusal, degraded
	// mode, or a data-corruption error from the structure's own reads.
	Detected atomic.Uint64
	// Violations counts silent corruption and torn-recovery failures.
	Violations atomic.Uint64
	// TotalOps is the workload's op count (set once census completes).
	TotalOps atomic.Uint64
}

// FaultsResult summarizes a completed media-fault campaign.
type FaultsResult struct {
	// TotalOps is the workload's device-op count (crash-point universe).
	TotalOps uint64
	// Points is how many crash points the stride actually visited.
	Points uint64
	// Steps echoes the script length.
	Steps int
	// Stats is the final counter snapshot source.
	Stats *FaultsStats
	// Media aggregates injected-fault counters across all worker devices.
	Media pmem.MediaFaultCounts
	// Violations holds up to MaxViolations failures with flight dumps. For
	// torn outcomes Violation.EvictSeed carries the schedule index; for
	// flips it carries the probe index.
	Violations []Violation
}

func registerFaultsMetrics(reg *obs.Registry, st *FaultsStats) {
	reg.CounterFunc("explore_faults_crash_points_total", "Crash points processed by the media-fault campaign.", nil, st.CrashPoints.Load)
	reg.CounterFunc("explore_faults_torn_schedules_total", "Torn crash outcomes applied.", nil, st.TornSchedules.Load)
	reg.CounterFunc("explore_faults_torn_pruned_total", "Torn outcomes pruned by durable-image hash.", nil, st.TornPruned.Load)
	reg.CounterFunc("explore_faults_bit_flips_total", "At-rest bit flips injected.", nil, st.BitFlips.Load)
	reg.CounterFunc("explore_faults_masked_total", "Fault outcomes recovered to a correct state.", nil, st.Masked.Load)
	reg.CounterFunc("explore_faults_repaired_total", "Flips healed by the repair path.", nil, st.Repaired.Load)
	reg.CounterFunc("explore_faults_detected_total", "Flips answered by refusal, degraded mode, or a read error.", nil, st.Detected.Load)
	reg.CounterFunc("explore_faults_violations_total", "Silent corruption and torn-recovery failures.", nil, st.Violations.Load)
}

// faultsRun visits crash points of the exhaust script through the core's
// two primitives: replay to an armed cut, and reboot-and-verify an image.
type faultsRun struct {
	s   *sweep[*pool.Pool]
	w   *steps
	cfg FaultsConfig
	fst *FaultsStats

	// targets are the at-rest flip ranges (see pool.FlipTargets), fixed by
	// the pristine image's geometry.
	targets  []pool.Range
	totalLen uint64
}

// RunFaults runs the media-fault campaign. Like Run, it returns an error
// only for infrastructure failures; fault-model violations are reported
// as FaultsResult.Violations.
func RunFaults(cfg FaultsConfig) (*FaultsResult, error) {
	cfg = cfg.withDefaults()
	w, imgs, err := newSteps(Config{Workload: cfg.Workload, Steps: cfg.Steps, PoolSize: cfg.PoolSize}.withDefaults())
	if err != nil {
		return nil, err
	}
	// Nesting is Run's dimension, not this campaign's.
	s := &sweep[*pool.Pool]{sc: w, pristine: imgs, depth: -1, workers: cfg.Workers,
		stride: uint64(max(cfg.PointStride, 1)), maxViolations: cfg.MaxViolations, log: cfg.Log}
	if err := s.start(); err != nil {
		return nil, err
	}
	fr := &faultsRun{s: s, w: w, cfg: cfg, fst: cfg.Stats}
	if fr.fst == nil {
		fr.fst = &FaultsStats{}
	}
	if cfg.Registry != nil {
		registerFaultsMetrics(cfg.Registry, fr.fst)
	}
	fr.fst.TotalOps.Store(s.total)

	// Flip targets are a pure function of the image's header geometry.
	gdev := pmem.New(len(imgs[0]), pmem.Options{TrackCrash: true})
	gdev.RestoreDurable(imgs[0])
	if fr.targets, err = pool.FlipTargets(gdev); err != nil {
		return nil, fmt.Errorf("explore: flip targets: %w", err)
	}
	for _, r := range fr.targets {
		fr.totalLen += r.Len
	}
	s.log("explore: faults workload=%s steps=%d ops=%d stride=%d torn-budget=%d flips/point=%d workers=%d",
		w.cfg.Workload, len(w.ops), s.total, s.stride, cfg.TornBudget, cfg.FlipsPerPoint, s.workers)

	res := &FaultsResult{TotalOps: s.total, Points: s.points(), Steps: len(w.ops), Stats: fr.fst}
	for _, mc := range s.run(fr.point) {
		m := mc.devs[0].MediaFaults()
		res.Media.TornLines += m.TornLines
		res.Media.TornWords += m.TornWords
		res.Media.BitFlips += m.BitFlips
		res.Media.BadLines += m.BadLines
	}
	if res.Violations, err = s.finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// tornBit addresses one at-risk 8-byte word: bit `word` of line's mask.
type tornBit struct {
	line uint32
	word uint8
}

func flattenTorn(cands []pmem.TornLine) []tornBit {
	var out []tornBit
	for _, c := range cands {
		for wi := uint8(0); wi < pmem.WordsPerLine; wi++ {
			if c.Mask&(1<<wi) != 0 {
				out = append(out, tornBit{line: c.Line, word: wi})
			}
		}
	}
	return out
}

// masksForIndex decodes one schedule index into per-line word masks: bit
// i of idx decides whether at-risk word i persists. Iterating idx over
// [0, 2^len(bits)) enumerates every distinct torn outcome.
func masksForIndex(bits []tornBit, idx uint64) map[uint32]uint8 {
	masks := make(map[uint32]uint8, len(bits))
	for i, b := range bits {
		if idx&(1<<uint(i)) != 0 {
			masks[b.line] |= 1 << b.word
		}
	}
	return masks
}

// point drives one crash point through both fault dimensions.
func (fr *faultsRun) point(mc *machine, m uint64) {
	fr.fst.CrashPoints.Add(1)
	acked, ok := fr.rearm(mc, m, -1)
	if ok && fr.tornSchedules(mc, m, acked) {
		fr.flipSweep(mc, m, acked)
	}
}

// rearm replays the workload to the armed cut at m (torn and flip
// applications consume the device state, so every schedule needs one).
// want, when not -1, is the acked count an earlier replay saw.
func (fr *faultsRun) rearm(mc *machine, m uint64, want int) (int, bool) {
	acked, cut, err := fr.s.replay(mc, m)
	switch {
	case err != nil:
	case !cut:
		// Census sized the universe, so this indicates nondeterminism.
		err = fmt.Errorf("crash point %d never fired (workload ops shrank?)", m)
	case want != -1 && acked != want:
		err = fmt.Errorf("rearm diverged: acked %d then %d", want, acked)
	default:
		return acked, true
	}
	fr.s.fail(mc, Violation{CrashPoint: m, Acked: acked}, err)
	fr.fst.Violations.Add(1)
	return acked, false
}

// tornSchedules explores the torn-write dimension at an armed cut and
// reports whether the campaign should continue with this point. The
// machine arrives armed (replayed, crash not yet applied).
func (fr *faultsRun) tornSchedules(mc *machine, m uint64, acked int) bool {
	dev := mc.devs[0]
	cands := dev.TornCandidates()
	bits := flattenTorn(cands)
	budget := fr.cfg.TornBudget
	exhaustive := len(bits) < 63 && (1<<uint(len(bits))) <= budget
	if exhaustive {
		budget = 1 << uint(len(bits))
	}
	for s := 0; s < budget; s++ {
		if fr.s.stop.Load() {
			return false
		}
		if s > 0 {
			if _, ok := fr.rearm(mc, m, acked); !ok {
				return false
			}
		}
		switch {
		case exhaustive:
			// Every subset of at-risk words, index 0 being the plain
			// none-persist crash.
			dev.CrashTornMasks(masksForIndex(bits, uint64(s)))
		case s == 0:
			dev.Crash() // none of the at-risk words persist
		case s == 1:
			masks := make(map[uint32]uint8, len(cands))
			for _, c := range cands {
				masks[c.Line] = c.Mask // all of them persist
			}
			dev.CrashTornMasks(masks)
		default:
			dev.CrashTorn(int64(m)*1_000_003 + int64(s)) // seeded coin flips
		}
		fr.verifyTorn(mc, m, acked, int64(s))
	}
	return true
}

// verifyTorn holds torn outcomes to the full fail-stop contract: word
// tearing is inside the design's fault model, so recovery must succeed
// and land on the model after acked or acked+1 steps, exactly as for a
// plain crash.
func (fr *faultsRun) verifyTorn(mc *machine, m uint64, acked int, sched int64) {
	fr.fst.TornSchedules.Add(1)
	if fr.s.claim(mc, 0) == nil {
		fr.fst.TornPruned.Add(1)
		return
	}
	if fr.s.check(mc, mc.snapshot(), Violation{CrashPoint: m, EvictSeed: sched, Acked: acked}) {
		fr.fst.Masked.Add(1)
	} else {
		fr.fst.Violations.Add(1)
	}
}

// flipOutcome is the four-way taxonomy of an at-rest bit flip.
type flipOutcome int

const (
	flipMasked flipOutcome = iota
	flipRepaired
	flipDetected
	flipSilent
)

// flipSweep injects FlipsPerPoint single-bit flips into the plain-crash
// image at m and classifies each through the self-healing open path.
func (fr *faultsRun) flipSweep(mc *machine, m uint64, acked int) {
	if _, ok := fr.rearm(mc, m, acked); !ok {
		return
	}
	dev := mc.devs[0]
	dev.Crash()
	rest := dev.DurableSnapshot()
	rng := rand.New(rand.NewSource(int64(m)*0x9E3779B9 + 0xFA)) // deterministic per point
	for j := 0; j < fr.cfg.FlipsPerPoint; j++ {
		if fr.s.stop.Load() {
			return
		}
		off, bit := fr.pickFlip(rng, rest)
		fr.fst.BitFlips.Add(1)
		switch fr.w.classifyFlip(dev, rest, off, bit, acked) {
		case flipMasked:
			fr.fst.Masked.Add(1)
		case flipRepaired:
			fr.fst.Repaired.Add(1)
		case flipDetected:
			fr.fst.Detected.Add(1)
		case flipSilent:
			fr.fst.Violations.Add(1)
			fr.s.fail(mc, Violation{CrashPoint: m, EvictSeed: int64(j), Acked: acked}, fmt.Errorf(
				"SILENT CORRUPTION: bit flip at off=%d bit=%d survived recovery undetected", off, bit))
		}
	}
}

// pickFlip draws a flip site from the at-rest target ranges, weighted by
// length and biased toward nonzero bytes (allocated structures and data)
// so probes concentrate on media that software actually reads. The last
// draw stands when every candidate byte is zero.
func (fr *faultsRun) pickFlip(rng *rand.Rand, rest []byte) (off uint64, bit uint8) {
	const tries = 32
	for t := 0; t < tries; t++ {
		x := uint64(rng.Int63n(int64(fr.totalLen)))
		for _, r := range fr.targets {
			if x < r.Len {
				off = r.Off + x
				break
			}
			x -= r.Len
		}
		bit = uint8(rng.Intn(8))
		if rest[off] != 0 {
			return off, bit
		}
	}
	return off, bit
}

// classifyFlip restores the plain-crash image, injects the flip, and
// reopens through the self-healing path. Every explicit answer — fsck
// refusal, attach error, degraded mode, a data-corruption error from the
// structure's own reads — counts as detection. A correct verify counts as
// masked, or repaired when fsck had flagged the damage first. Wrong data
// with no error anywhere is silent corruption, the campaign's violation.
func (w *steps) classifyFlip(dev *pmem.Device, rest []byte, off uint64, bit uint8, acked int) flipOutcome {
	dev.RestoreDurable(rest)
	dev.InjectBitFlip(off, bit)
	flagged := false
	if rep, err := pool.FsckDevice(dev); err != nil {
		return flipDetected // image no longer parses: maximally loud
	} else if !rep.Clean() {
		flagged = true
	}
	p, err := pool.AttachRepair(dev)
	if err != nil || p.Degraded() {
		return flipDetected
	}
	st, err := w.def.attach(corundumeng.Wrap(p))
	if err != nil {
		return flipDetected
	}
	if err := st.check(); err != nil {
		return flipDetected
	}
	errA := st.verify(w.models[acked])
	ok := errA == nil
	if !ok {
		if errors.Is(errA, workloads.ErrDataCorrupt) {
			return flipDetected
		}
		if acked+1 < len(w.models) {
			errB := st.verify(w.models[acked+1])
			ok = errB == nil
			if !ok && errors.Is(errB, workloads.ErrDataCorrupt) {
				return flipDetected
			}
		}
	}
	if ok {
		if flagged {
			return flipRepaired
		}
		return flipMasked
	}
	// Wrong data, but did any read say so? Re-probe every model key: a
	// data-corruption error on the divergent key still counts as loud.
	for k := range w.models[acked] {
		if _, _, err := st.get(k); err != nil {
			return flipDetected
		}
	}
	return flipSilent
}
