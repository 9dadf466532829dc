// The crash-replay core every image campaign runs on. A campaign is a
// script — forward (the workload, from the pristine images), reboot (what
// a restarted process does) and verify (the contract a reboot's outcome
// is held to) — and the core owns everything else: the machine whose
// power is cut, the census, crash points sharded across workers, eviction
// variants, nested cuts during recovery with durable-image pruning, and
// violation capture. Exhaust, faults and migrate are three scripts over
// it.
package explore

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"corundum/internal/obs"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// flightCap is the per-device flight-recorder capacity for violation
// dumps: recovery may replay bulk slab refill/spill batches of several
// hundred ops, and the CRASH marker must stay in the ring through them.
const flightCap = 4096

// machine is the set of devices one power supply feeds. A cut lands on
// whichever device issues the armed op, and every device loses power.
type machine struct {
	devs []*pmem.Device
	ops  atomic.Uint64 // device ops since the last arm, across every device
}

func newMachine(imgs [][]byte) *machine {
	mc := &machine{devs: make([]*pmem.Device, len(imgs))}
	for i, img := range imgs {
		mc.devs[i] = pmem.New(len(img), pmem.Options{TrackCrash: true})
		mc.devs[i].SetFlightRecorder(flightCap)
	}
	return mc
}

// restore installs imgs as every device's durable and live contents.
func (mc *machine) restore(imgs [][]byte) {
	for i, d := range mc.devs {
		d.RestoreDurable(imgs[i])
	}
}

// arm starts one cut counter across every device: the n-th device op
// from now, in protocol order whichever device it lands on, panics with
// ErrInjectedCrash. n == 0 only counts. fence, when set, receives the
// index of every fence.
func (mc *machine) arm(n uint64, fence func(i uint64)) {
	mc.ops.Store(0)
	fire := func(op pmem.Op) bool {
		i := mc.ops.Add(1)
		if fence != nil && op == pmem.OpFence {
			fence(i)
		}
		return i == n
	}
	for _, d := range mc.devs {
		d.SetFaultInjector(fire)
	}
}

func (mc *machine) disarm() {
	for _, d := range mc.devs {
		d.SetFaultInjector(nil)
	}
}

// crash cuts power to every device; a non-zero evictSeed additionally
// persists a seeded subset of unfenced cache lines.
func (mc *machine) crash(evictSeed int64) {
	for _, d := range mc.devs {
		if evictSeed != 0 {
			d.CrashWithEviction(evictSeed)
		} else {
			d.Crash()
		}
	}
}

// hash combines every device's durable-image hash.
func (mc *machine) hash() uint64 {
	var h uint64
	for _, d := range mc.devs {
		h = h*0x100000001b3 ^ d.DurableHash()
	}
	return h
}

func (mc *machine) snapshot() [][]byte {
	imgs := make([][]byte, len(mc.devs))
	for i, d := range mc.devs {
		imgs[i] = d.DurableSnapshot()
	}
	return imgs
}

// flight dumps every device's flight recorder, naming each shard when
// the machine has more than one.
func (mc *machine) flight() string {
	if len(mc.devs) == 1 {
		return pmem.FormatFlight(mc.devs[0].FlightEvents())
	}
	var b strings.Builder
	for i, d := range mc.devs {
		fmt.Fprintf(&b, "shard %d:\n%s\n", i, pmem.FormatFlight(d.FlightEvents()))
	}
	return b.String()
}

// script is one campaign over the core. S is what a completed reboot
// hands verify.
type script[S any] interface {
	// forward runs the workload on the machine's pristine images, bumping
	// *acked as each step is acknowledged. It calls open where the crash
	// window starts; device ops before that are not crash points.
	forward(mc *machine, open func(), acked *int) error
	// reboot is what a restarted process does with the durable images.
	reboot(mc *machine) (S, error)
	// verify holds a completed reboot to the campaign's contract, given
	// how many steps forward had acknowledged when power was cut.
	verify(s S, acked int) error
}

// sweep enumerates a script's crash points. The fields up to stats are
// its configuration; start fills in defaults and runs the census.
type sweep[S any] struct {
	sc            script[S]
	pristine      [][]byte
	depth         int    // nested recovery cuts: 0 means 2, negative none
	evictions     int    // eviction seeds replayed per crash point
	workers       int    // 0 means GOMAXPROCS, capped at 8
	limit         uint64 // explore only crash points 1..limit (0 = all)
	stride        uint64 // visit every stride-th crash point (0 = 1)
	maxViolations int    // stop after this many (0 = 8)
	log           func(format string, args ...any)
	registry      *obs.Registry
	stats         *Stats

	total  uint64   // census: the crash-point universe
	fences []uint64 // census: op index of every fence

	seen  sync.Map // combined durable-image hash -> struct{}
	mu    sync.Mutex
	viols []Violation
	stop  atomic.Bool
}

func (s *sweep[S]) start() error {
	if s.depth < 0 {
		s.depth = 0
	} else if s.depth == 0 {
		s.depth = 2
	}
	if s.workers <= 0 {
		s.workers = min(runtime.GOMAXPROCS(0), 8)
	}
	if s.stride == 0 {
		s.stride = 1
	}
	if s.maxViolations <= 0 {
		s.maxViolations = 8
	}
	if s.log == nil {
		s.log = func(string, ...any) {}
	}
	if s.stats == nil {
		s.stats = &Stats{}
	}
	if s.registry != nil {
		registerMetrics(s.registry, s.stats)
	}

	// Census: one uninterrupted forward run fixes the op universe. Replays
	// are deterministic, so these indices are exact for every later run.
	mc := newMachine(s.pristine)
	mc.restore(s.pristine)
	var acked int
	err := s.sc.forward(mc, func() {
		mc.arm(0, func(i uint64) { s.fences = append(s.fences, i) })
	}, &acked)
	mc.disarm()
	if err != nil {
		return fmt.Errorf("explore: census: %w", err)
	}
	if s.total = mc.ops.Load(); s.total == 0 {
		return errors.New("explore: workload issued no device ops")
	}
	s.stats.TotalOps.Store(s.total)
	return nil
}

// points is the number of crash points the stride and limit leave.
func (s *sweep[S]) points() uint64 {
	last := s.total
	if s.limit > 0 && s.limit < last {
		last = s.limit
	}
	return (last + s.stride - 1) / s.stride
}

// run visits the crash points, sharded across workers that each drive
// their own machine, and returns the machines.
func (s *sweep[S]) run(visit func(mc *machine, n uint64)) []*machine {
	mcs := make([]*machine, s.workers)
	points := s.points()
	var wg sync.WaitGroup
	for w := range mcs {
		mcs[w] = newMachine(s.pristine)
		wg.Add(1)
		go func(mc *machine, i uint64) {
			defer wg.Done()
			for ; i < points && !s.stop.Load(); i += uint64(s.workers) {
				visit(mc, 1+i*s.stride)
				s.stats.CrashPoints.Add(1)
			}
		}(mcs[w], uint64(w))
	}
	wg.Wait()
	return mcs
}

// finish returns the violations. A clean run must also have been
// exhaustive: every crash point processed and every fence interval
// non-empty.
func (s *sweep[S]) finish() ([]Violation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.viols) > 0 {
		return s.viols, nil
	}
	if got := s.stats.CrashPoints.Load(); got != s.points() {
		return nil, fmt.Errorf("explore: processed %d of %d crash points", got, s.points())
	}
	for i, n := range intervalPoints(s.total, s.fences) {
		if n == 0 {
			return nil, fmt.Errorf("explore: fence interval %d got zero crash points — enumeration is not exhaustive", i)
		}
	}
	return nil, nil
}

// intervalPoints sizes each fence interval (f_{i-1}, f_i], plus the tail
// after the last fence when non-empty.
func intervalPoints(T uint64, fences []uint64) []uint64 {
	var out []uint64
	prev := uint64(0)
	for _, f := range fences {
		out = append(out, f-prev)
		prev = f
	}
	if T > prev {
		out = append(out, T-prev)
	}
	return out
}

// point is the default visit: the plain cut at n with its nested
// recovery cuts, then each eviction variant, which gets plain recovery
// only (the nested dimension is explored on the evict-free image).
func (s *sweep[S]) point(mc *machine, n uint64) {
	for seed := int64(0); seed <= int64(s.evictions); seed++ {
		if s.stop.Load() {
			return
		}
		acked, cut, err := s.replay(mc, n)
		v := Violation{CrashPoint: n, EvictSeed: seed, Acked: acked}
		if err == nil && !cut {
			err = fmt.Errorf("crash point %d never fired (op universe shrank?)", n)
		}
		if err != nil {
			s.fail(mc, v, err)
			return
		}
		mc.crash(seed)
		if seed > 0 {
			s.stats.Evictions.Add(1)
		}
		switch {
		case !s.firstSeen(mc):
			s.stats.Pruned.Add(1)
		case seed > 0:
			s.check(mc, mc.snapshot(), v)
		default:
			s.recoverFrom(mc, mc.snapshot(), v)
		}
	}
}

// replay restores the pristine images and runs forward with a cut armed
// at its n-th op. The machine is left at the cut, power not yet lost, so
// the caller decides how the crash lands (and may inspect what is at
// risk first).
func (s *sweep[S]) replay(mc *machine, n uint64) (acked int, cut bool, err error) {
	mc.restore(s.pristine)
	for _, d := range mc.devs {
		d.SetFlightRecorder(flightCap) // fresh history per replay
	}
	cut = pmem.Contain(func() {
		err = s.sc.forward(mc, func() { mc.arm(n, nil) }, &acked)
	})
	mc.disarm()
	return acked, cut, err
}

// recoverFrom verifies the clean reboot of imgs and then, while the trail
// is shorter than the depth, cuts power at every op of that reboot in
// turn and recurses into each surviving image not seen before. It is the
// one enumeration of nested recovery cuts.
func (s *sweep[S]) recoverFrom(mc *machine, imgs [][]byte, v Violation) {
	if !s.check(mc, imgs, v) || len(v.Trail) >= s.depth {
		return
	}
	for r := uint64(1); !s.stop.Load(); r++ {
		mc.restore(imgs)
		mc.arm(r, nil)
		var err error
		cut := pmem.Contain(func() { _, err = s.sc.reboot(mc) })
		mc.disarm()
		sub := v
		sub.Trail = append(append([]uint64(nil), v.Trail...), r)
		if err != nil {
			s.fail(mc, sub, fmt.Errorf("recovery error: %w", err))
			return
		}
		if !cut {
			return // the reboot finished in fewer than r ops: level exhausted
		}
		s.stats.RecoveryCrashes.Add(1)
		mc.crash(0)
		if !s.firstSeen(mc) {
			s.stats.Pruned.Add(1)
			continue
		}
		s.recoverFrom(mc, mc.snapshot(), sub)
	}
}

// check reboots imgs uninterrupted — fsck of every device, reboot, then
// the script's contract — and reports whether the contract held.
func (s *sweep[S]) check(mc *machine, imgs [][]byte, v Violation) bool {
	mc.restore(imgs)
	err := func() error {
		for i, d := range mc.devs {
			if err := pool.Fsck(d); err != nil {
				return fmt.Errorf("post-crash fsck of device %d: %w", i, err)
			}
		}
		st, err := s.sc.reboot(mc)
		if err != nil {
			return fmt.Errorf("recovery failed: %w", err)
		}
		return s.sc.verify(st, v.Acked)
	}()
	if err != nil {
		s.fail(mc, v, err)
		return false
	}
	s.stats.Explored.Add(1)
	return true
}

// firstSeen records the machine's durable images, reporting whether they
// were new.
func (s *sweep[S]) firstSeen(mc *machine) bool {
	_, loaded := s.seen.LoadOrStore(mc.hash(), struct{}{})
	return !loaded
}

func (s *sweep[S]) fail(mc *machine, v Violation, err error) {
	s.stats.Violations.Add(1)
	v.Err, v.Flight = err, mc.flight()
	s.mu.Lock()
	s.viols = append(s.viols, v)
	if len(s.viols) >= s.maxViolations {
		s.stop.Store(true)
	}
	s.mu.Unlock()
	s.log("explore: VIOLATION %s", v)
}
