package pool

import (
	"fmt"
	"time"

	"corundum/internal/alloc"
	"corundum/internal/journal"
	"corundum/internal/pmem"
)

// OpenRepair is Open with a self-healing fallback: instead of refusing a
// structurally damaged image, it repairs what the mirrored headers, root
// slots, and allocator checksums cover, and — when damage remains — opens
// the pool in degraded read-only mode with the damaged ranges
// quarantined, so intact data stays readable. The only images it still
// refuses are those that cannot be parsed at all and those where
// corruption coexists with journals awaiting recovery (recovery would
// have to trust the very structures that failed verification).
func OpenRepair(path string, mem pmem.Options) (*Pool, error) {
	if path == "" {
		return nil, fmt.Errorf("pool: OpenRepair requires a path; use AttachRepair for in-memory pools")
	}
	h, err := readHeader(path)
	if err != nil {
		return nil, err
	}
	dev, err := pmem.OpenFile(path, int(h.size), mem)
	if err != nil {
		return nil, err
	}
	return AttachRepair(dev)
}

// AttachRepair attaches to an image the way Attach does, but follows the
// OpenRepair policy for damaged images: repair from mirrors and
// checksums where possible, degrade to read-only where not.
func AttachRepair(dev *pmem.Device) (*Pool, error) {
	fsckStart := time.Now()
	rep, err := FsckDevice(dev)
	if err != nil {
		return nil, err
	}
	if rep.Clean() {
		fsckSecs := time.Since(fsckStart).Seconds()
		p, err := Attach(dev)
		if err != nil {
			return nil, err
		}
		p.prependRecoveryPhase("fsck", fsckSecs)
		return p, nil
	}
	if rep.Pending && !dirProblemsOnly(rep) {
		// Corruption alongside journals awaiting recovery: rollback and
		// roll-forward would run over the damaged structures and could
		// compound the damage. This combination is not survivable. The
		// one exception is damage confined to the directory slot mirrors:
		// recovery never reads them (the buffer state words are the
		// authority), so rewriting a mirror and then recovering is safe.
		return nil, rep.Err()
	}
	repairStart := time.Now()
	fsckSecs := repairStart.Sub(fsckStart).Seconds()
	repairImage(dev, rep)
	rep, err = FsckDevice(dev)
	if err != nil {
		return nil, err
	}
	repairSecs := time.Since(repairStart).Seconds()
	p, err := Attach(dev)
	if err != nil {
		return nil, err
	}
	// The re-fsck after repair is part of the repair phase: it validates
	// the rewrite before recovery trusts it.
	p.prependRecoveryPhase("repair", repairSecs)
	p.prependRecoveryPhase("fsck", fsckSecs)
	if rep.Clean() {
		return p, nil
	}
	// Unrepairable damage remains: serve reads, refuse writes, and name
	// the condemned ranges.
	p.Degrade(rep.Err().Error())
	for _, r := range quarantineRanges(p.geo, rep.Problems) {
		p.AddQuarantine(r)
	}
	return p, nil
}

// dirProblemsOnly reports whether every problem is a directory slot
// mirror — the one damage class that is safe to repair with journals
// still pending.
func dirProblemsOnly(rep *FsckReport) bool {
	for _, pr := range rep.Problems {
		if pr.Area != AreaJournalDir {
			return false
		}
	}
	return true
}

// repairImage fixes every mirror- or checksum-covered problem in place.
// It must only run when no journal is pending (the journals are idle, so
// nothing races these writes), except for directory slot mirrors, which
// recovery never reads.
func repairImage(dev *pmem.Device, rep *FsckReport) {
	for _, pr := range rep.Problems {
		if !pr.Repairable {
			continue
		}
		switch pr.Area {
		case AreaHeader:
			// One copy failed its checksum; rewrite both from the good one
			// under a fresh sequence number.
			if h, _, _, err := headerOf(dev); err == nil {
				h.seq++
				writeHeader(dev, h)
			}
		case AreaRoot:
			repairRootSlots(dev)
		case AreaBitmap:
			g, err := computeGeometryOf(dev)
			if err != nil {
				continue
			}
			meta := g.metaOff + uint64(pr.Index)*alloc.MetaSize(g.arenaHeap)
			heap := g.heapOff + uint64(pr.Index)*g.arenaHeap
			alloc.Open(dev, meta, heap, g.arenaHeap).ScrubChecksums()
		case AreaJournalDir:
			g, err := computeGeometryOf(dev)
			if err != nil {
				continue
			}
			journal.RepairSlot(dev.In(pmem.ScopeUserData), g.dirOff, g.bufOff, g.bufCap, pr.Index)
		}
	}
}

// repairRootSlots mirrors the surviving root slot over a damaged one.
// A no-op when both slots are damaged or both intact.
func repairRootSlots(dev *pmem.Device) {
	rootA, typA, okA := rootSlot(dev, rootSlotAOff)
	rootB, typB, okB := rootSlot(dev, rootSlotBOff)
	if okA == okB {
		return
	}
	root, typ := rootA, typA
	target := uint64(rootSlotBOff)
	if okB {
		root, typ = rootB, typB
		target = rootSlotAOff
	}
	var slot [rootSlotSize]byte
	encodeRootSlot(slot[:], root, typ)
	dev.Write(target, slot[:])
	dev.Persist(target, rootSlotSize)
}

// computeGeometryOf rebuilds the geometry from an image's header.
func computeGeometryOf(dev *pmem.Device) (geometry, error) {
	h, _, _, err := headerOf(dev)
	if err != nil {
		return geometry{}, err
	}
	return computeGeometry(int(h.size), int(h.journals), int(h.journalCap))
}

// FlipTargets reports the byte ranges of an image where an at-rest
// bit flip is a fair probe of the self-healing machinery: the static
// header and root region, the journal directory (checksummed slot
// mirrors), each arena's allocator metadata minus its redo-log area,
// and the whole heap span.
//
// Deliberately excluded: journal buffers and allocator redo-log areas —
// an at-rest flip in an unretired log entry is indistinguishable from a
// torn in-flight append, which the torn-write model already covers;
// flipping it at rest would manufacture partial-replay outcomes that no
// real rot pattern produces (logs are transient, rot strikes long-lived
// data).
func FlipTargets(dev *pmem.Device) ([]Range, error) {
	g, err := computeGeometryOf(dev)
	if err != nil {
		return nil, err
	}
	meta := alloc.MetaSize(g.arenaHeap)
	logArea := alloc.LogAreaSize()
	out := []Range{
		{Off: 0, Len: headerSize},
		{Off: g.dirOff, Len: journal.DirSize(g.nJournals)},
	}
	for i := 0; i < g.nJournals; i++ {
		off := g.metaOff + uint64(i)*meta
		out = append(out, Range{Off: off + logArea, Len: meta - logArea})
	}
	out = append(out, Range{Off: g.heapOff, Len: uint64(g.nJournals) * g.arenaHeap})
	return out, nil
}

// quarantineRanges maps unrepairable problems to the byte ranges they
// condemn: a broken arena condemns its metadata and, for readers, its
// heap span; broken root slots condemn the root region.
func quarantineRanges(g geometry, problems []FsckProblem) []Range {
	var out []Range
	for _, pr := range problems {
		if pr.Repairable {
			continue
		}
		switch pr.Area {
		case AreaBitmap:
			meta := g.metaOff + uint64(pr.Index)*alloc.MetaSize(g.arenaHeap)
			heap := g.heapOff + uint64(pr.Index)*g.arenaHeap
			out = append(out,
				Range{Off: meta, Len: alloc.MetaSize(g.arenaHeap)},
				Range{Off: heap, Len: g.arenaHeap})
		case AreaRoot:
			out = append(out, Range{Off: rootSlotAOff, Len: headerSize - rootSlotAOff})
		case AreaJournal:
			out = append(out, Range{Off: g.bufOff + uint64(pr.Index)*g.bufCap, Len: g.bufCap})
		case AreaHeader:
			out = append(out, Range{Off: 0, Len: 2 * headerCopySize})
		}
	}
	return out
}

// ScrubReport summarizes one online scrub pass.
type ScrubReport struct {
	// Arenas is how many allocator arenas were scanned.
	Arenas int
	// Repairs counts mirror copies and checksum slots rewritten.
	Repairs int
	// Problems lists everything found, repaired or not.
	Problems []FsckProblem
	// Quarantined lists ranges condemned by THIS pass (already-known
	// quarantine from open time is not repeated; see Pool.Quarantine).
	Quarantined []Range
}

// Scrub verifies the pool's self-describing metadata on a live pool —
// header mirrors, root slots, and every arena's allocator checksums —
// repairing what mirrors and checksum rewrites cover. It runs
// incrementally: each arena is checked under its own lock, one at a
// time, so transactions on other arenas proceed while it walks.
// Unrepairable damage degrades the pool to read-only and quarantines the
// damaged ranges. The error is non-nil only when such damage was found.
func (p *Pool) Scrub() (*ScrubReport, error) {
	p.scrubRuns.Add(1)
	rep := &ScrubReport{}

	// Header mirrors. p.hdr is the authoritative in-memory copy written
	// at attach; rootMu serializes the rewrite against SetRoot (different
	// region, same discipline) and concurrent scrubs.
	p.rootMu.Lock()
	_, goodA, goodB, err := headerOf(p.dev)
	if err != nil {
		// Both copies damaged at once: rewrite from the attached state.
		p.hdr.seq++
		writeHeader(p.dev, p.hdr)
		rep.Repairs++
		rep.Problems = append(rep.Problems, FsckProblem{
			Area: AreaHeader, Index: -1, Repairable: true,
			Detail: "both static header copies failed their checksum; rewrote both from memory",
		})
	} else if pr, ok := headerProblem(goodA, goodB); ok {
		p.hdr.seq++
		writeHeader(p.dev, p.hdr)
		rep.Repairs++
		rep.Problems = append(rep.Problems, pr)
	}
	// Root slots: mirror the survivor over a damaged copy.
	if pr, ok := rootProblem(rootSlotsOK(p.dev)); ok {
		if pr.Repairable {
			repairRootSlots(p.dev)
			rep.Repairs++
		}
		rep.Problems = append(rep.Problems, pr)
	}
	p.rootMu.Unlock()

	// Journal directory slot mirrors. Each slot is checked with its
	// journal held out of the free list, so no transaction can race the
	// rewrite; busy journals are skipped — their owning transaction
	// rewrites the mirror on its next state transition anyway. Cycling
	// through the FIFO free list visits every currently idle journal.
	seen := make([]bool, p.geo.nJournals)
	checked := 0
dirScan:
	for tries := 0; checked < p.geo.nJournals && tries < 4*p.geo.nJournals; tries++ {
		select {
		case i := <-p.freeJ:
			if !seen[i] {
				seen[i] = true
				checked++
				if !journal.SlotOK(p.dev, p.geo.dirOff, i) {
					journal.RepairSlot(p.dev.In(pmem.ScopeUserData), p.geo.dirOff, p.geo.bufOff, p.geo.bufCap, i)
					rep.Repairs++
					rep.Problems = append(rep.Problems, dirSlotProblem(i))
				}
			}
			p.freeJ <- i
		default:
			break dirScan // every remaining journal is running a transaction
		}
	}

	// Arenas, one lock at a time.
	for i, a := range p.arenas {
		rep.Arenas++
		checksums, structure := a.ScrubChecksums()
		if pr, ok := arenaProblem(i, structure, checksums); ok {
			if pr.Repairable {
				rep.Repairs++
			}
			rep.Problems = append(rep.Problems, pr)
		}
	}

	p.scrubRepairs.Add(uint64(rep.Repairs))
	p.scrubProblems.Add(uint64(len(rep.Problems)))

	var unrepairable []FsckProblem
	for _, pr := range rep.Problems {
		if !pr.Repairable {
			unrepairable = append(unrepairable, pr)
		}
	}
	if len(unrepairable) == 0 {
		return rep, nil
	}
	fr := &FsckReport{Problems: unrepairable}
	rep.Quarantined = quarantineRanges(p.geo, unrepairable)
	p.Degrade(fr.Err().Error())
	for _, r := range rep.Quarantined {
		p.AddQuarantine(r)
	}
	return rep, fr.Err()
}
