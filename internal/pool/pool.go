// Package pool implements Corundum's persistent memory pools: a PM-backed
// file holding metadata, a root pointer, journals, and a sharded
// crash-atomic heap. A pool is self-contained — every offset stored inside
// it refers to the same pool — and carries a generation number that
// invalidates volatile weak pointers across close/reopen cycles.
package pool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"corundum/internal/alloc"
	"corundum/internal/journal"
	"corundum/internal/pmem"
)

const (
	magic = 0x434F52554E44554D // "CORUNDUM"
	// formatVersion 2 introduced the mirrored static header and root
	// slots (see header.go); 3 added the per-arena slab ledger to the
	// allocator metadata region (see alloc/slab.go), which moves every
	// arena boundary. Older pools are refused.
	formatVersion = 3
)

// Pool state errors.
var (
	ErrClosed       = errors.New("pool: pool is closed")
	ErrNotAPool     = errors.New("pool: file is not a Corundum pool")
	ErrWrongVersion = errors.New("pool: incompatible format version")
	ErrWrongRoot    = errors.New("pool: root type differs from the one the pool was created with")
	ErrNoSpace      = errors.New("pool: size too small for the requested configuration")
	// ErrBusy reports that every journal slot was in use for longer than
	// the configured acquire timeout (SetAcquireTimeout). The transaction
	// never began, so retrying is always safe; serving layers surface it
	// as a retryable backpressure signal instead of blocking forever.
	ErrBusy = errors.New("pool: all journal slots busy")
	// ErrCorrupt reports that a pool image failed its structural fsck
	// pass; the detail names what is wrong. Open refuses such pools.
	ErrCorrupt = errors.New("pool: image failed structural check")
	// ErrReadOnly reports that the pool is serving in degraded read-only
	// mode (unrepairable corruption was found); mutations are refused
	// while reads of intact data keep working.
	ErrReadOnly = errors.New("pool: degraded read-only mode")
)

// Range names a quarantined byte span of the pool image: a region whose
// owning structure failed verification and could not be repaired.
type Range struct {
	Off, Len uint64
}

// RecoveryPhase is one step of the open-time recovery timeline: a named
// phase and the wall-clock seconds it took. The phases, in order, cover
// the whole span between the process deciding to open a pool and that
// pool accepting transactions — recovery as an observable, phased
// process rather than an opaque startup stall.
type RecoveryPhase struct {
	Name    string
	Seconds float64
}

// Config sizes a pool at creation. The parameters are persisted in the pool
// header, so reopening needs no configuration.
type Config struct {
	// Size is the total pool footprint in bytes (default 64 MiB).
	Size int
	// Journals is the number of journal slots and heap arenas; it bounds
	// how many transactions run concurrently (default 16).
	Journals int
	// JournalCap is the head log buffer per journal in bytes (default
	// 256 KiB). Transactions that outgrow it chain continuation pages from
	// their arena, so this only tunes how much logging avoids allocation.
	JournalCap int
	// Mem selects latency and crash-tracking behaviour of the device.
	Mem pmem.Options
}

func (c Config) withDefaults() Config {
	if c.Size == 0 {
		c.Size = 64 << 20
	}
	if c.Journals <= 0 {
		c.Journals = 16
	}
	if c.JournalCap == 0 {
		c.JournalCap = 256 << 10
	}
	// The head buffer must hold the state word plus at least one maximal
	// entry and a chain-link reservation; 4 KiB is a comfortable floor.
	if c.JournalCap < 4<<10 {
		c.JournalCap = 4 << 10
	}
	return c
}

// Pool is an open persistent memory pool.
type Pool struct {
	dev      *pmem.Device
	arenas   []*alloc.Buddy
	journals []*journal.Journal
	freeJ    chan int

	heapStart  uint64 // first heap byte (arena 0)
	arenaSpan  uint64 // heap bytes per arena
	generation uint64
	geo        geometry
	hdr        header

	// Degraded read-only mode: set when unrepairable corruption is found
	// (at open by AttachRepair, or later by Scrub). Mutation entry points
	// check Writable; reads of intact data keep working.
	degraded   atomic.Bool
	degradeMu  sync.Mutex
	degradeWhy string
	quarantine []Range

	// Scrub and repair counters (exported via EnableMetrics).
	scrubRuns     atomic.Uint64
	scrubRepairs  atomic.Uint64
	scrubProblems atomic.Uint64

	// rootMu serializes root-slot writers (SetRoot transactions) against
	// scrub-time mirror repair.
	rootMu sync.Mutex

	// reclaimMu keeps a freed block away from other transactions until
	// the journal that freed it is durably idle: allocations hold it
	// shared, a drop-applying commit holds it exclusively (see Reclaim).
	reclaimMu sync.RWMutex

	// Recovery statistics from Attach (zero for freshly created pools).
	recoveredBack int
	recoveredFwd  int

	// recoveryTimeline records how long each phase of the open-time
	// recovery pass took, in order (fsck, repair, heap-open,
	// journal-replay, claim-resolution, publish). Written once during
	// Open/Attach/AttachRepair, read-only afterwards.
	recoveryTimeline []RecoveryPhase

	// acquireTO, when positive (nanoseconds), bounds how long Transaction
	// waits for a free journal slot before failing with ErrBusy.
	acquireTO atomic.Int64

	mu   sync.RWMutex
	open bool

	// metrics, when set by EnableMetrics, receives per-transaction
	// observations; atomic so the transaction path never takes mu for it.
	metrics atomic.Pointer[poolMetrics]
}

type geometry struct {
	dirOff, bufOff, bufCap uint64
	nJournals              int
	metaOff, heapOff       uint64
	arenaHeap              uint64
}

func computeGeometry(size, nJournals, journalCap int) (geometry, error) {
	g := geometry{
		dirOff:    headerSize,
		bufOff:    headerSize + journal.DirSize(nJournals),
		bufCap:    uint64(journalCap),
		nJournals: nJournals,
	}
	g.metaOff = g.bufOff + uint64(nJournals*journalCap)
	avail := int64(size) - int64(g.metaOff)
	if avail <= 0 {
		return g, ErrNoSpace
	}
	// Each arena needs MetaSize(h) + h; MetaSize grows ~h/64, so start from
	// an optimistic estimate and shrink to fit.
	h := uint64(avail) / uint64(nJournals) * 64 / 66
	h &^= alloc.Granule - 1
	for h > 0 {
		need := uint64(nJournals) * (alloc.MetaSize(h) + h)
		if g.metaOff+need <= uint64(size) {
			break
		}
		h -= alloc.Granule
	}
	if h < 16*alloc.Granule {
		return g, ErrNoSpace
	}
	g.arenaHeap = h
	g.heapOff = g.metaOff + uint64(nJournals)*alloc.MetaSize(h)
	return g, nil
}

// Create formats a new pool. If path is empty the pool lives only in
// memory, which tests and benchmarks use.
func Create(path string, cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	g, err := computeGeometry(cfg.Size, cfg.Journals, cfg.JournalCap)
	if err != nil {
		return nil, err
	}
	var dev *pmem.Device
	if path == "" {
		dev = pmem.New(cfg.Size, cfg.Mem)
	} else {
		dev, err = pmem.OpenFile(path, cfg.Size, cfg.Mem)
		if err != nil {
			return nil, err
		}
	}

	p := &Pool{dev: dev, heapStart: g.heapOff, arenaSpan: g.arenaHeap, geo: g}
	for i := 0; i < g.nJournals; i++ {
		meta := g.metaOff + uint64(i)*alloc.MetaSize(g.arenaHeap)
		heap := g.heapOff + uint64(i)*g.arenaHeap
		p.arenas = append(p.arenas, alloc.Format(dev, meta, heap, g.arenaHeap))
	}
	p.journals = journal.Format(dev, p, g.dirOff, g.bufOff, g.bufCap, g.nJournals)
	p.initFreeList()

	// Both root slots start valid with root 0, then both header copies.
	var slot [rootSlotSize]byte
	encodeRootSlot(slot[:], 0, 0)
	dev.Write(rootSlotAOff, slot[:])
	dev.Write(rootSlotBOff, slot[:])
	dev.Persist(rootSlotAOff, headerSize-rootSlotAOff)
	p.hdr = header{
		version:    formatVersion,
		size:       uint64(cfg.Size),
		journals:   uint64(cfg.Journals),
		journalCap: uint64(cfg.JournalCap),
		arenaHeap:  g.arenaHeap,
		generation: 1,
		seq:        1,
	}
	writeHeader(dev, p.hdr)
	p.generation = 1
	p.open = true
	return p, nil
}

// Open attaches to an existing pool created with Create, running allocator
// and journal recovery first, and bumping the generation so that stale
// volatile weak pointers from the previous incarnation cannot resolve.
// The header stores the full geometry, so no configuration is needed.
func Open(path string, mem pmem.Options) (*Pool, error) {
	if path == "" {
		return nil, errors.New("pool: Open requires a path; use Create for in-memory pools")
	}
	h, err := readHeader(path)
	if err != nil {
		return nil, err
	}
	dev, err := pmem.OpenFile(path, int(h.size), mem)
	if err != nil {
		return nil, err
	}
	// Refuse structurally corrupt images before recovery touches them:
	// recovery assumes well-formed journal state words and allocator
	// metadata, and running it over garbage could destroy evidence.
	fsckStart := time.Now()
	if err := Fsck(dev); err != nil {
		return nil, err
	}
	fsckSecs := time.Since(fsckStart).Seconds()
	p, err := Attach(dev)
	if err != nil {
		return nil, err
	}
	p.prependRecoveryPhase("fsck", fsckSecs)
	return p, nil
}

// Attach builds a Pool over an already-loaded device that contains a
// formatted pool image. It runs full recovery. Tests use it to reopen a
// crashed in-memory pool; Open uses it for files.
func Attach(dev *pmem.Device) (*Pool, error) {
	h, _, _, err := headerOf(dev)
	if err != nil {
		return nil, err
	}
	if h.version != formatVersion {
		return nil, fmt.Errorf("%w: %d", ErrWrongVersion, h.version)
	}
	if int(h.size) != dev.Size() {
		return nil, fmt.Errorf("pool: header size %d != device size %d", h.size, dev.Size())
	}
	g, err := computeGeometry(int(h.size), int(h.journals), int(h.journalCap))
	if err != nil {
		return nil, err
	}
	if g.arenaHeap != h.arenaHeap {
		return nil, fmt.Errorf("pool: computed arena heap %d != recorded %d", g.arenaHeap, h.arenaHeap)
	}

	p := &Pool{dev: dev, heapStart: g.heapOff, arenaSpan: g.arenaHeap, geo: g}
	phaseStart := time.Now()
	mark := func(name string) {
		now := time.Now()
		p.recoveryTimeline = append(p.recoveryTimeline, RecoveryPhase{Name: name, Seconds: now.Sub(phaseStart).Seconds()})
		phaseStart = now
	}
	for i := 0; i < g.nJournals; i++ {
		meta := g.metaOff + uint64(i)*alloc.MetaSize(g.arenaHeap)
		heap := g.heapOff + uint64(i)*g.arenaHeap
		p.arenas = append(p.arenas, alloc.Open(dev, meta, heap, g.arenaHeap))
	}
	mark("heap-open")
	p.recoveredBack, p.recoveredFwd = journal.Recover(dev, p, g.dirOff, g.bufOff, g.bufCap, g.nJournals)
	mark("journal-replay")
	// Settle slab claims only after journal recovery: a rolled-back
	// transaction's undo restores may target bytes inside a block it had
	// claimed, and those restores must land while the block is still
	// allocated. Every journal is idle now, so each claim's fate is decided
	// by its journal's durable epoch.
	for _, a := range p.arenas {
		a.ResolveClaims(func(jIdx int, e16 uint16) bool {
			if jIdx < 0 || jIdx >= g.nJournals {
				return false
			}
			return journal.ClaimAborted(dev, g.bufOff+uint64(jIdx)*g.bufCap, e16)
		})
	}
	mark("claim-resolution")
	p.journals = journal.Attach(dev, p, g.dirOff, g.bufOff, g.bufCap, g.nJournals)
	p.initFreeList()

	// Bump the generation: this incarnation's volatile pointers must not be
	// confused with the previous one's. The seq-protocol rewrite of both
	// copies doubles as mirror repair for any stale or damaged copy.
	h.generation++
	h.seq++
	writeHeader(dev, h)
	p.hdr = h
	p.generation = h.generation
	p.open = true
	mark("publish")
	return p, nil
}

func readHeader(path string) (header, error) {
	raw, err := readFilePrefix(path, headerSize)
	if err != nil {
		return header{}, err
	}
	h, _, _, err := chooseHeader(raw)
	return h, err
}

func (p *Pool) initFreeList() {
	p.freeJ = make(chan int, len(p.journals))
	for i := range p.journals {
		p.freeJ <- i
	}
}

// Device exposes the underlying emulated PM device.
func (p *Pool) Device() *pmem.Device { return p.dev }

// Generation identifies this open incarnation of the pool.
func (p *Pool) Generation() uint64 { return p.generation }

// IsOpen reports whether the pool accepts transactions.
func (p *Pool) IsOpen() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.open
}

// Journals reports the number of journal slots (the transaction
// concurrency bound).
func (p *Pool) Journals() int { return len(p.journals) }

// JournalsFree reports how many journal slots are currently idle; the
// difference from Journals is the number of in-flight transactions. It is
// an instantaneous snapshot, safe to call concurrently (serving-layer
// INFO/diagnostics).
func (p *Pool) JournalsFree() int { return len(p.freeJ) }

// Recovery reports what the Attach-time recovery pass did: how many
// interrupted transactions were rolled back and how many post-commit-point
// transactions were rolled forward. Both are zero for freshly created
// pools and for pools that shut down cleanly.
func (p *Pool) Recovery() (rolledBack, rolledForward int) {
	return p.recoveredBack, p.recoveredFwd
}

// RecoveryTimeline returns the open-time recovery phases in order with
// their durations. Empty for pools built by Create (nothing to recover).
func (p *Pool) RecoveryTimeline() []RecoveryPhase {
	out := make([]RecoveryPhase, len(p.recoveryTimeline))
	copy(out, p.recoveryTimeline)
	return out
}

// RecoverySeconds returns the total open-time recovery duration (the sum
// of the timeline phases).
func (p *Pool) RecoverySeconds() float64 {
	var s float64
	for _, ph := range p.recoveryTimeline {
		s += ph.Seconds
	}
	return s
}

// prependRecoveryPhase records a phase that ran before Attach (fsck,
// image repair) at the front of the timeline, keeping phase order equal
// to execution order.
func (p *Pool) prependRecoveryPhase(name string, seconds float64) {
	p.recoveryTimeline = append([]RecoveryPhase{{Name: name, Seconds: seconds}}, p.recoveryTimeline...)
}

// RootOff returns the offset of the root object, or 0 if none was set.
// It reads through the mirrored, CRC-protected root slots: a single
// damaged slot falls back to its mirror.
func (p *Pool) RootOff() uint64 {
	root, _, _ := readRoot(p.dev)
	return root
}

// RootTypeHash returns the hash of the root type recorded at first open.
func (p *Pool) RootTypeHash() uint64 {
	_, typ, _ := readRoot(p.dev)
	return typ
}

// SetRoot records the root object (and its type hash) inside transaction
// j, undo-logged like any other persistent update. Both mirror slots are
// logged and written together, so they stay identical through commits and
// rollbacks alike and only media damage can make them diverge.
func (p *Pool) SetRoot(j *journal.Journal, off, typeHash uint64) error {
	if err := p.Writable(); err != nil {
		return err
	}
	if err := j.DataLog(rootSlotAOff, rootSlotSize); err != nil {
		return err
	}
	if err := j.DataLog(rootSlotBOff, rootSlotSize); err != nil {
		return err
	}
	var slot [rootSlotSize]byte
	encodeRootSlot(slot[:], off, typeHash)
	p.rootMu.Lock()
	p.dev.StoreBytes(rootSlotAOff, slot[:])
	p.dev.StoreBytes(rootSlotBOff, slot[:])
	p.rootMu.Unlock()
	return nil
}

// Writable reports whether the pool accepts mutations: nil normally, an
// ErrReadOnly-wrapped reason in degraded mode.
func (p *Pool) Writable() error {
	if !p.degraded.Load() {
		return nil
	}
	p.degradeMu.Lock()
	why := p.degradeWhy
	p.degradeMu.Unlock()
	return fmt.Errorf("%w: %s", ErrReadOnly, why)
}

// Degraded reports whether the pool is in degraded read-only mode.
func (p *Pool) Degraded() bool { return p.degraded.Load() }

// DegradedReason returns what forced read-only mode ("" when healthy).
func (p *Pool) DegradedReason() string {
	p.degradeMu.Lock()
	defer p.degradeMu.Unlock()
	return p.degradeWhy
}

// Degrade switches the pool into read-only mode, recording why. The first
// reason sticks; later calls only append quarantined ranges via
// Quarantine. It is called by AttachRepair when an image cannot be fully
// repaired and by Scrub when it finds unrepairable damage on a live pool.
func (p *Pool) Degrade(reason string) {
	p.degradeMu.Lock()
	if p.degradeWhy == "" {
		p.degradeWhy = reason
	}
	p.degradeMu.Unlock()
	p.degraded.Store(true)
}

// AddQuarantine records a byte range whose owning structure failed
// verification and could not be repaired. Duplicate ranges (a repeated
// scrub re-finding the same damage) are collapsed.
func (p *Pool) AddQuarantine(r Range) {
	p.degradeMu.Lock()
	defer p.degradeMu.Unlock()
	for _, have := range p.quarantine {
		if have == r {
			return
		}
	}
	p.quarantine = append(p.quarantine, r)
}

// Quarantine lists the byte ranges condemned so far.
func (p *Pool) Quarantine() []Range {
	p.degradeMu.Lock()
	defer p.degradeMu.Unlock()
	out := make([]Range, len(p.quarantine))
	copy(out, p.quarantine)
	return out
}

// ArenaMetaRange reports arena i's allocator-metadata region (redo log,
// free heads, order map, checksum slots, slab ledger). Fault-injection
// harnesses use it to place at-rest media damage precisely.
func (p *Pool) ArenaMetaRange(i int) Range {
	meta := alloc.MetaSize(p.geo.arenaHeap)
	return Range{Off: p.geo.metaOff + uint64(i)*meta, Len: meta}
}

// ArenaLedgerRange reports arena i's slab-ledger span (a sub-range of
// ArenaMetaRange). Every entry there is CRC-gated and replay discards
// what fails, so fault campaigns aiming at the ledger specifically must
// see damage masked, never silent.
func (p *Pool) ArenaLedgerRange(i int) Range {
	off, size := p.arenas[i].LedgerRange()
	return Range{Off: off, Len: size}
}

// AllocEx, Free and IsAllocated implement journal.Heap by routing to the
// arena that owns the offset.

// AllocEx allocates from the given arena, folding extra updates into the
// allocation's crash-atomic step. Degraded pools refuse with ErrReadOnly.
func (p *Pool) AllocEx(arena int, size uint64, payload []byte, extra func(off uint64) []alloc.Update) (uint64, error) {
	if err := p.Writable(); err != nil {
		return 0, err
	}
	p.reclaimMu.RLock()
	defer p.reclaimMu.RUnlock()
	return p.arenas[arena].AllocEx(size, payload, extra)
}

// AllocClaim serves an allocation from the arena's slab cache in
// deferred-fence mode (see alloc.Buddy.AllocClaim). Degraded pools
// report a miss so no mutation path opens.
func (p *Pool) AllocClaim(arena int, size uint64, payload []byte, epoch uint64) (uint64, bool) {
	if p.Writable() != nil {
		return 0, false
	}
	p.reclaimMu.RLock()
	defer p.reclaimMu.RUnlock()
	return p.arenas[arena].AllocClaim(size, payload, arena, epoch)
}

// Reclaim implements journal.Heap: fn (a commit's drops through its
// durable idle retire) runs with every AllocEx and AllocClaim in the pool
// held out. Arenas are per journal but a drop frees into whichever arena
// owns the block, so without this another transaction could be handed a
// block whose drop a crash would make recovery apply a second time. The
// deferred unlock lets an injected-crash panic out of fn release the
// other goroutines onto the poisoned device instead of parking them.
func (p *Pool) Reclaim(fn func()) {
	p.reclaimMu.Lock()
	defer p.reclaimMu.Unlock()
	fn()
}

// RetireClaims recycles the arena's settled claim ledger slots.
func (p *Pool) RetireClaims(arena int) {
	p.arenas[arena].RetireClaims()
}

// Free returns a block to the arena that owns it. Degraded pools refuse
// with ErrReadOnly.
func (p *Pool) Free(off, size uint64) error {
	if err := p.Writable(); err != nil {
		return err
	}
	return p.arenaFor(off).Free(off, size)
}

// IsAllocated reports whether off is an allocated block of size's order.
func (p *Pool) IsAllocated(off, size uint64) bool {
	a := p.arenaForOrNil(off)
	return a != nil && a.IsAllocated(off, size)
}

func (p *Pool) arenaFor(off uint64) *alloc.Buddy {
	a := p.arenaForOrNil(off)
	if a == nil {
		panic(fmt.Sprintf("pool: offset %#x outside every arena", off))
	}
	return a
}

func (p *Pool) arenaForOrNil(off uint64) *alloc.Buddy {
	if off < p.heapStart {
		return nil
	}
	i := (off - p.heapStart) / p.arenaSpan
	if int(i) >= len(p.arenas) {
		return nil
	}
	return p.arenas[i]
}

// InUse reports allocated bytes across all arenas.
func (p *Pool) InUse() uint64 {
	var total uint64
	for _, a := range p.arenas {
		total += a.InUse()
	}
	return total
}

// FreeBytes reports free heap bytes across all arenas.
func (p *Pool) FreeBytes() uint64 {
	var total uint64
	for _, a := range p.arenas {
		total += a.FreeBytes()
	}
	return total
}

// CheckConsistency validates every arena's structural invariants.
func (p *Pool) CheckConsistency() error {
	for i, a := range p.arenas {
		if err := a.CheckConsistency(); err != nil {
			return fmt.Errorf("arena %d: %w", i, err)
		}
	}
	return nil
}

// Close flushes the pool and detaches it. In-flight transactions must have
// finished; subsequent Transaction calls fail with ErrClosed. Volatile weak
// pointers into the pool become unpromotable.
func (p *Pool) Close() error {
	p.mu.Lock()
	if !p.open {
		p.mu.Unlock()
		return ErrClosed
	}
	p.open = false
	p.mu.Unlock()
	return p.dev.Close()
}

// ArenaInUse reports allocated bytes in one arena (diagnostics).
func (p *Pool) ArenaInUse(i int) uint64 { return p.arenas[i].InUse() }

// ArenaSlabStats reports one arena's slab-cache counters (metrics and
// diagnostics).
func (p *Pool) ArenaSlabStats(i int) alloc.SlabStats { return p.arenas[i].SlabStats() }

// SetSlabParams tunes every arena's slab cache: refill spares per miss
// and parked blocks per class before a spill; refill < 1 disables the
// caches (the pre-slab, full-fence behaviour, kept for ablations).
func (p *Pool) SetSlabParams(refill, capPerClass int) {
	for _, a := range p.arenas {
		a.SetSlabParams(refill, capPerClass)
	}
}
