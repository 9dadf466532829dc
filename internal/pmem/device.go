package pmem

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"corundum/internal/obs"
)

// Device is an emulated persistent-memory device.
//
// The live contents (what loads observe) are in buf, and every load and
// store of them is a device method (word.go): DAX-mapped PM, where loads
// and stores bypass the OS, but never the crash model. Stores land in the
// emulated CPU cache: they are visible immediately but do not survive a
// crash until the affected cache lines are Flushed and a Fence has
// completed. The typed layer's in-place pointers (UnsafeAddr) are the one
// documented exception. When crash
// tracking is enabled, the device maintains a shadow copy holding exactly
// the bytes that would survive power loss, so tests can cut power at any
// instruction boundary and observe the surviving state.
//
// All methods are safe for concurrent use. Distinct goroutines writing the
// same cache line concurrently is a data race in the program under test,
// exactly as on real hardware.
type Device struct {
	path  string
	prof  Profile
	buf   []byte
	track bool

	// dirty is an atomic bitset with one bit per cache line: set while the
	// line has stores that have not been flushed.
	dirty []atomic.Uint64

	// shadow and pending exist only when crash tracking is on. shadow holds
	// fenced (durable) bytes. pending holds lines that have been flushed but
	// not yet fenced; a crash in that window loses them too (worst case).
	shadowMu sync.Mutex
	shadow   []byte
	pending  map[uint32][]byte

	// ctrs attributes every operation to the scope of the handle it was
	// issued through (see Scope); Stats sums them into a snapshot.
	ctrs [NumScopes]opCounters

	// hook, when set, observes every completed Write/Flush/Fence with its
	// scope — the extension point external tracers and tests attach to.
	hook atomic.Pointer[OpHook]

	// flight, when set, is the crash flight recorder: a bounded ring of
	// recent operations dumped after a crash to explain torn state.
	flight atomic.Pointer[obs.Recorder]

	// ops counts injection points deterministically: one per Write, one
	// per cache line of every Flush, one per Fence — the same sequence a
	// fault injector observes, so replaying a deterministic workload
	// produces the same count every time. crashAt, when non-zero, is the
	// ops value at which the device cuts power on its own (CrashAt).
	ops     atomic.Uint64
	crashAt atomic.Uint64

	// inject, when set, is the fault injector consulted before every op
	// (SetFaultInjector); poisoned is set from the cut until the reboot.
	inject   atomic.Pointer[func(op Op) bool]
	poisoned atomic.Bool

	// media counts injected sub-fail-stop faults (torn lines, bit flips,
	// bad lines); bad is the set of lines marked unreadable. Media damage
	// survives Crash (the module is still broken after a reboot) but not
	// RestoreDurable (which models installing a known-good image).
	media mediaCounters
	badMu sync.Mutex
	bad   map[uint32]struct{}
}

// mediaCounters accumulates media-fault injections for pmem_media_faults_*.
type mediaCounters struct {
	tornLines, tornWords, bitFlips, badLines atomic.Uint64
}

// opCounters is one scope's cumulative operation counts, plus the
// modelled nanoseconds of its Flushes and Fences (the profile's delays:
// FlushDelay per line, FenceDelay per fence) so latency decomposition can
// charge persistence time to the layer that issued it, not just count
// the operations. The modelled figure is exact and deterministic, and
// costs no clock read; the emulator's own bookkeeping is not in it.
type opCounters struct {
	writes, flushes, fences atomic.Uint64
	flushNS, fenceNS        atomic.Uint64
	_                       [24]byte // one scope per cache line
}

// OpHook observes completed device operations. n is the byte count for
// writes, the cache-line count for flushes, and 0 for fences.
type OpHook func(op Op, scope Scope, n uint64)

// Op identifies a device operation for fault injection and statistics.
type Op int

// Device operations observable by fault injectors. OpCrash never reaches
// injectors: it is the marker the flight recorder logs at the moment power
// is cut, separating pre-crash history from recovery traffic in a dump.
const (
	OpWrite Op = iota
	OpFlush
	OpFence
	OpCrash
	// OpTear, OpFlip, and OpBadLine are media-fault markers: like OpCrash
	// they never reach injectors, but they appear in flight-recorder dumps
	// so a torn or corrupted image explains itself.
	OpTear
	OpFlip
	OpBadLine
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	case OpFence:
		return "fence"
	case OpCrash:
		return "CRASH"
	case OpTear:
		return "TEAR"
	case OpFlip:
		return "FLIP"
	case OpBadLine:
		return "BADLINE"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// OpCounts is a point-in-time snapshot of write/flush/fence counts.
// FlushNanos and FenceNanos are the cumulative modelled persistence time:
// Flushes × the profile's FlushDelay and Fences × its FenceDelay, which
// the device also spins for as it issues them. Both are 0 under
// NoDelay. The delta of two snapshots is how long an interval stalled on
// modelled PM, never the emulator's own work.
type OpCounts struct {
	Writes, Flushes, Fences uint64
	FlushNanos, FenceNanos  uint64
}

// Stats is a point-in-time snapshot of the device's cumulative operation
// counters, total and broken down by attribution scope. Being a value, it
// cannot race with in-flight operations the way a live pointer would:
// two snapshots bracket a workload and their difference is exact.
type Stats struct {
	OpCounts
	ByScope [NumScopes]OpCounts
}

// ErrInjectedCrash is the panic value raised when a fault injector fires.
// Harnesses recover it, call Crash, and then exercise recovery.
var ErrInjectedCrash = errors.New("pmem: injected crash")

// Contain runs fn and reports whether a power cut ended it: true when fn
// panicked with ErrInjectedCrash, false when it returned. Any other panic
// value propagates unchanged. It is the one place a harness turns a cut
// back into control flow.
func Contain(fn func()) (cut bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != ErrInjectedCrash {
				panic(r)
			}
			cut = true
		}
	}()
	fn()
	return false
}

// Options configures a Device.
type Options struct {
	// Profile selects injected latencies. The zero value means NoDelay.
	Profile Profile
	// TrackCrash enables the shadow persistence layer needed by Crash and
	// fault injection. It costs one extra copy of the arena plus bookkeeping
	// on every Flush/Fence, so benchmarks leave it off.
	TrackCrash bool
	// FlightRecorder, when positive, retains about that many recent device
	// operations in a bounded ring so a crash report can name the exact
	// flush/fence history that led to the observed state. Zero disables it.
	FlightRecorder int
}

// New creates a device of the given size backed only by memory.
func New(size int, opts Options) *Device {
	if size <= 0 || size%CacheLineSize != 0 {
		panic(fmt.Sprintf("pmem: size %d must be a positive multiple of %d", size, CacheLineSize))
	}
	if opts.Profile.Name == "" {
		opts.Profile = NoDelay
	}
	d := &Device{
		prof:  opts.Profile,
		buf:   alignedBytes(size),
		track: opts.TrackCrash,
		dirty: make([]atomic.Uint64, (size/CacheLineSize+63)/64),
	}
	if d.track {
		d.shadow = make([]byte, size)
		d.pending = make(map[uint32][]byte)
	}
	if opts.FlightRecorder > 0 {
		d.flight.Store(obs.NewRecorder(opts.FlightRecorder))
	}
	return d
}

// OpenFile creates a device backed by the file at path. If the file exists
// its contents become both the live and the durable state (as after a clean
// reboot); otherwise the device starts zeroed and the file is created on
// Sync or Close.
func OpenFile(path string, size int, opts Options) (*Device, error) {
	d := New(size, opts)
	d.path = path
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if len(data) != size {
			return nil, fmt.Errorf("pmem: %s holds %d bytes, want %d", path, len(data), size)
		}
		copy(d.buf, data)
		if d.track {
			copy(d.shadow, data)
		}
	case os.IsNotExist(err):
		// Fresh pool file; nothing to load.
	default:
		return nil, fmt.Errorf("pmem: open %s: %w", path, err)
	}
	return d, nil
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int { return len(d.buf) }

// Profile returns the active latency profile.
func (d *Device) Profile() Profile { return d.prof }

// Stats returns a snapshot of the operation counters. Each per-scope word
// is read atomically; the totals are their sums.
func (d *Device) Stats() Stats {
	var st Stats
	for sc := Scope(0); sc < NumScopes; sc++ {
		c := OpCounts{
			Writes:     d.ctrs[sc].writes.Load(),
			Flushes:    d.ctrs[sc].flushes.Load(),
			Fences:     d.ctrs[sc].fences.Load(),
			FlushNanos: d.ctrs[sc].flushNS.Load(),
			FenceNanos: d.ctrs[sc].fenceNS.Load(),
		}
		st.ByScope[sc] = c
		st.Writes += c.Writes
		st.Flushes += c.Flushes
		st.Fences += c.Fences
		st.FlushNanos += c.FlushNanos
		st.FenceNanos += c.FenceNanos
	}
	return st
}

// SetOpHook installs fn, observing every completed Write, Flush, and
// Fence with its attribution scope. Pass nil to remove. The hook runs on
// the operating goroutine and must be cheap and non-blocking.
func (d *Device) SetOpHook(fn OpHook) {
	if fn == nil {
		d.hook.Store(nil)
		return
	}
	d.hook.Store(&fn)
}

// observe is the common per-operation tail: hook and flight recorder.
func (d *Device) observe(op Op, sc Scope, off, n uint64) {
	if h := d.hook.Load(); h != nil {
		(*h)(op, sc, n)
	}
	if f := d.flight.Load(); f != nil {
		f.Record(uint8(op), uint8(sc), off, n)
	}
}

// Write is StoreBytes counted as an operation: an injection point, a
// write in Stats and the op hook, and the profile's write latency. It
// models a small store done by library metadata code (allocator words,
// log headers), whose every cut point crash exploration enumerates.
//
// Write, Flush, Fence and Persist on the device itself are charged to
// ScopeUserData; In returns the handle for any other scope.
func (d *Device) Write(off uint64, data []byte) { d.write(ScopeUserData, off, data) }

func (d *Device) write(sc Scope, off uint64, data []byte) {
	if len(data) == 0 {
		return
	}
	d.maybeInject(OpWrite, sc)
	d.ctrs[sc].writes.Add(1)
	storeBytes(d.buf, off, data)
	d.markDirty(off, uint64(len(data)))
	d.observe(OpWrite, sc, off, uint64(len(data)))
	spin(d.prof.WriteDelay)
}

// Flush issues a write-back for every cache line overlapping [off, off+n),
// like a CLWB loop. Flushed lines still need a Fence before they are
// guaranteed durable.
func (d *Device) Flush(off, n uint64) { d.flush(ScopeUserData, off, n) }

func (d *Device) flush(sc Scope, off, n uint64) {
	if n == 0 {
		return
	}
	d.bounds(off, n)
	first := off / CacheLineSize
	last := (off + n - 1) / CacheLineSize
	for line := first; line <= last; line++ {
		d.maybeInject(OpFlush, sc)
		d.ctrs[sc].flushes.Add(1)
		word := &d.dirty[line/64]
		mask := uint64(1) << (line % 64)
		if word.Load()&mask != 0 {
			if d.track {
				d.stageLine(word, mask, line)
			} else {
				word.And(^mask)
			}
		}
		spin(d.prof.FlushDelay)
	}
	if d.prof.FlushDelay > 0 {
		d.ctrs[sc].flushNS.Add((last - first + 1) * uint64(d.prof.FlushDelay))
	}
	d.observe(OpFlush, sc, off, last-first+1)
}

// Fence completes all outstanding write-backs, like SFENCE. After Fence
// returns, every previously Flushed line survives a crash.
func (d *Device) Fence() { d.fence(ScopeUserData) }

func (d *Device) fence(sc Scope) {
	d.maybeInject(OpFence, sc)
	d.ctrs[sc].fences.Add(1)
	if d.track {
		d.shadowMu.Lock()
		for line, data := range d.pending {
			copy(d.shadow[uint64(line)*CacheLineSize:], data)
		}
		clear(d.pending)
		d.shadowMu.Unlock()
	}
	d.observe(OpFence, sc, 0, 0)
	spin(d.prof.FenceDelay)
	if d.prof.FenceDelay > 0 {
		d.ctrs[sc].fenceNS.Add(uint64(d.prof.FenceDelay))
	}
}

// Persist is the common Flush-then-Fence sequence.
func (d *Device) Persist(off, n uint64) {
	d.Flush(off, n)
	d.Fence()
}

// stageLine moves one dirty line into pending. Clearing the dirty bit,
// copying the line and publishing the copy are one critical section:
// when several goroutines flush the same line, whichever copy is
// published last was also taken last, and a flusher that finds the bit
// already clear can only have lost to one that is still inside this
// section — its own Fence then queues behind it on shadowMu. The copy
// uses the word-atomic loads the device's stores pair with, so neighbours
// storing to their own words of the line are not a data race.
func (d *Device) stageLine(word *atomic.Uint64, mask, line uint64) {
	d.shadowMu.Lock()
	defer d.shadowMu.Unlock()
	if word.Load()&mask == 0 {
		return // a concurrent flusher staged it between our check and the lock
	}
	word.And(^mask)
	start := line * CacheLineSize
	cp := make([]byte, CacheLineSize)
	d.LoadBytes(start, cp)
	d.pending[uint32(line)] = cp
}

// Crash simulates power loss: the live contents revert to the durable
// state, losing every store that was not flushed and fenced. It requires
// TrackCrash. The device remains usable, modelling the machine rebooting
// with the same PM module installed.
func (d *Device) Crash() {
	if !d.track {
		panic("pmem: Crash requires Options.TrackCrash")
	}
	d.markCrash(ScopeUserData)
	d.poisoned.Store(false) // the machine reboots
	d.shadowMu.Lock()
	defer d.shadowMu.Unlock()
	copy(d.buf, d.shadow)
	clear(d.pending)
	for i := range d.dirty {
		d.dirty[i].Store(0)
	}
}

// DurableSnapshot returns a copy of the bytes that would survive power
// loss right now (the fenced shadow). It requires TrackCrash. Paired with
// RestoreDurable it lets crash-exploration harnesses fork execution from
// a captured post-crash state without replaying the workload.
func (d *Device) DurableSnapshot() []byte {
	if !d.track {
		panic("pmem: DurableSnapshot requires Options.TrackCrash")
	}
	d.shadowMu.Lock()
	defer d.shadowMu.Unlock()
	return append([]byte(nil), d.shadow...)
}

// RestoreDurable rewinds the device to a previously captured durable
// image: live and durable contents both become data, all cache state
// (dirty lines, flushed-not-fenced lines) is dropped, any armed CrashAt
// is disarmed, and the device is unpoisoned — modelling a reboot with a
// known PM image installed. It requires TrackCrash.
func (d *Device) RestoreDurable(data []byte) {
	if !d.track {
		panic("pmem: RestoreDurable requires Options.TrackCrash")
	}
	if len(data) != len(d.buf) {
		panic(fmt.Sprintf("pmem: RestoreDurable of %d bytes into device of size %d", len(data), len(d.buf)))
	}
	d.crashAt.Store(0)
	d.poisoned.Store(false)
	d.badMu.Lock()
	d.bad = nil // a restored image means a known-good module
	d.badMu.Unlock()
	d.shadowMu.Lock()
	defer d.shadowMu.Unlock()
	copy(d.buf, data)
	copy(d.shadow, data)
	clear(d.pending)
	for i := range d.dirty {
		d.dirty[i].Store(0)
	}
}

// durableHashSeed makes DurableHash stable within the process, which is
// all crash-exploration pruning needs.
var durableHashSeed = maphash.MakeSeed()

// DurableHash returns a fast 64-bit hash of the durable image, used by
// exhaustive crash exploration to prune crash points whose surviving
// state has already been explored. Hashes are only comparable within one
// process. It requires TrackCrash.
func (d *Device) DurableHash() uint64 {
	if !d.track {
		panic("pmem: DurableHash requires Options.TrackCrash")
	}
	d.shadowMu.Lock()
	defer d.shadowMu.Unlock()
	return maphash.Bytes(durableHashSeed, d.shadow)
}

// CrashWithEviction simulates power loss where, additionally, some dirty
// cache lines happened to be evicted (and therefore persisted) before the
// crash, as real caches may do. Eviction is NOT line-atomic: persistent
// memory guarantees atomicity only for aligned 8-byte stores, so each
// 8-byte word of an evicted line persists independently with probability
// 1/2 under the given seed — a line may tear, surviving only in part.
// Software that is correct on real PM must tolerate any subset of words,
// so tests sweep seeds.
func (d *Device) CrashWithEviction(seed int64) {
	if !d.track {
		panic("pmem: CrashWithEviction requires Options.TrackCrash")
	}
	d.markCrash(ScopeUserData)
	d.poisoned.Store(false) // the machine reboots
	rng := rand.New(rand.NewSource(seed))
	d.shadowMu.Lock()
	defer d.shadowMu.Unlock()
	// Evicted dirty lines and flushed-not-fenced lines may each persist,
	// word by word.
	for w := range d.dirty {
		bits := d.dirty[w].Load()
		for b := 0; bits != 0; b++ {
			if bits&1 != 0 {
				line := uint32(w*64 + b)
				start := uint64(line) * CacheLineSize
				d.persistWordsLocked(line, uint8(rng.Intn(256)), d.buf[start:start+CacheLineSize])
			}
			bits >>= 1
		}
		d.dirty[w].Store(0)
	}
	lines := make([]uint32, 0, len(d.pending))
	for line := range d.pending {
		lines = append(lines, line)
	}
	slices.Sort(lines) // deterministic per seed: map order must not leak in
	for _, line := range lines {
		d.persistWordsLocked(line, uint8(rng.Intn(256)), d.pending[line])
	}
	clear(d.pending)
	copy(d.buf, d.shadow)
}

// SetFaultInjector installs fn, called before every Write, each cache
// line of every Flush, and every Fence — in every attribution scope,
// including ops issued by recovery itself (a crash during recovery is a
// legal power-loss point and harnesses must be able to exercise it). If
// fn returns true the device panics with ErrInjectedCrash; harnesses
// recover, call Crash, and exercise recovery. Pass nil to remove.
func (d *Device) SetFaultInjector(fn func(op Op) bool) {
	if fn == nil {
		d.inject.Store(nil)
		return
	}
	d.inject.Store(&fn)
}

// OpCount reports how many injection points the device has passed: one
// per Write, one per cache line of every Flush, one per Fence. The count
// is deterministic for a deterministic workload, which is what lets
// exhaustive crash exploration enumerate every interval [n, n+1) as a
// distinct crash point and replay to exactly op n.
func (d *Device) OpCount() uint64 { return d.ops.Load() }

// CrashAt arms a deterministic power cut: the device panics with
// ErrInjectedCrash the moment OpCount reaches n, without any injector
// callback in the loop. Zero disarms. The cut poisons the device exactly
// like a firing fault injector; harnesses recover the panic, call Crash
// (or CrashWithEviction), and exercise recovery. CrashAt and
// SetFaultInjector may be combined; CrashAt fires first.
func (d *Device) CrashAt(n uint64) { d.crashAt.Store(n) }

func (d *Device) maybeInject(op Op, sc Scope) {
	if d.poisoned.Load() {
		// Power is already off: nothing executes after a crash. Poisoning
		// keeps deferred cleanup in the program under test from touching the
		// media after the injected crash point, which real power loss makes
		// impossible.
		panic(ErrInjectedCrash)
	}
	n := d.ops.Add(1)
	if at := d.crashAt.Load(); at != 0 && n >= at {
		d.crashAt.Store(0)
		d.poisoned.Store(true)
		d.markCrash(sc)
		panic(ErrInjectedCrash)
	}
	if fn := d.inject.Load(); fn != nil && (*fn)(op) {
		d.poisoned.Store(true)
		d.markCrash(sc)
		panic(ErrInjectedCrash)
	}
}

// markCrash drops a CRASH marker into the flight recorder so a dump
// separates the operations that preceded power loss from recovery traffic.
// sc is the scope of the op the cut fell on (user data for a cut the
// harness makes itself).
func (d *Device) markCrash(sc Scope) {
	if f := d.flight.Load(); f != nil {
		f.Record(uint8(OpCrash), uint8(sc), 0, 0)
	}
}

// Sync writes the durable state to the backing file, if any. With crash
// tracking the shadow is written (only fenced data is durable); without it
// the live buffer is written, modelling a clean shutdown where caches are
// flushed by the platform (ADR/eADR).
func (d *Device) Sync() error {
	if d.path == "" {
		return nil
	}
	src := d.buf
	if d.track {
		d.shadowMu.Lock()
		src = append([]byte(nil), d.shadow...)
		d.shadowMu.Unlock()
	}
	if err := os.WriteFile(d.path, src, 0o644); err != nil {
		return fmt.Errorf("pmem: sync %s: %w", d.path, err)
	}
	return nil
}

// Close flushes everything (clean shutdown) and syncs the backing file.
func (d *Device) Close() error {
	if d.track {
		d.Flush(0, uint64(len(d.buf)))
		d.Fence()
	}
	return d.Sync()
}

func (d *Device) bounds(off, n uint64) {
	if off+n > uint64(len(d.buf)) || off+n < off {
		panic(fmt.Sprintf("pmem: access [%d,%d) outside device of size %d", off, off+n, len(d.buf)))
	}
}
