package pool

import (
	"fmt"
	"strings"

	"corundum/internal/alloc"
	"corundum/internal/journal"
	"corundum/internal/pmem"
)

// FsckArea names which pool structure a problem was found in.
type FsckArea string

const (
	AreaHeader     FsckArea = "header"      // static header copies
	AreaRoot       FsckArea = "root"        // mirrored root slots
	AreaJournal    FsckArea = "journal"     // journal state machinery
	AreaJournalDir FsckArea = "journal-dir" // checksummed directory slot mirrors
	AreaBitmap     FsckArea = "bitmap"      // allocator free lists / order map / checksums
	AreaHeap       FsckArea = "heap"        // user data backed by a condemned arena
)

// FsckProblem is one structural defect found in a pool image.
type FsckProblem struct {
	Area FsckArea
	// Index is the arena or journal the problem belongs to, -1 for
	// pool-global structures (header, root).
	Index int
	// Detail is a human-readable diagnosis.
	Detail string
	// Repairable reports that a mirror copy or checksum rewrite can fix
	// the damage without losing data (AttachRepair and Scrub do so).
	Repairable bool
}

// Where names the structure the problem sits in: its area, followed by
// the arena or journal index for per-arena and per-journal structures.
func (p FsckProblem) Where() string {
	if p.Index >= 0 {
		return fmt.Sprintf("%s %d", p.Area, p.Index)
	}
	return string(p.Area)
}

func (p FsckProblem) String() string {
	state := "unrepairable"
	if p.Repairable {
		state = "repairable"
	}
	return fmt.Sprintf("%s: %s (%s)", p.Where(), p.Detail, state)
}

// The helpers below name the damage each mirrored or checksummed
// structure can carry. FsckDevice (offline, before recovery) and Scrub
// (online, on a live pool) both build their problems through them, so
// the two name the same damage in the same words.

// headerProblem names a static header copy that failed its checksum
// while its mirror stayed intact; ok is false when both copies verify.
// Both copies failing is not covered: offline the image no longer
// parses, and online Scrub rewrites both from the attached header.
func headerProblem(goodA, goodB bool) (pr FsckProblem, ok bool) {
	if goodA && goodB {
		return FsckProblem{}, false
	}
	bad := "A"
	if !goodB {
		bad = "B"
	}
	return FsckProblem{
		Area: AreaHeader, Index: -1, Repairable: true,
		Detail: fmt.Sprintf("static header copy %s failed its checksum; mirror is intact", bad),
	}, true
}

// rootProblem names damage to the mirrored root slots; ok is false when
// both slots verify. One damaged slot is repaired from its mirror; with
// both damaged the root is unknown.
func rootProblem(okA, okB bool) (pr FsckProblem, ok bool) {
	switch {
	case okA && okB:
		return FsckProblem{}, false
	case !okA && !okB:
		return FsckProblem{
			Area: AreaRoot, Index: -1, Repairable: false,
			Detail: "both root slots failed their checksum",
		}, true
	}
	bad := "A"
	if !okB {
		bad = "B"
	}
	return FsckProblem{
		Area: AreaRoot, Index: -1, Repairable: true,
		Detail: fmt.Sprintf("root slot %s failed its checksum; mirror is intact", bad),
	}, true
}

// rootSlotsOK reports which root slots pass their checksum.
func rootSlotsOK(dev *pmem.Device) (okA, okB bool) {
	_, _, okA = rootSlot(dev, rootSlotAOff)
	_, _, okB = rootSlot(dev, rootSlotBOff)
	return okA, okB
}

// dirSlotProblem names journal i's directory slot failing its checksum.
// The mirror is lazy, so only its internal consistency is checked, and
// the buffer state word it echoes is the authority it is rewritten from.
func dirSlotProblem(i int) FsckProblem {
	return FsckProblem{
		Area: AreaJournalDir, Index: i, Repairable: true,
		Detail: "directory slot failed its checksum; buffer state word is authoritative",
	}
}

// arenaProblem names damage to arena i's allocator metadata; ok is false
// when there is none. Structural damage (free lists, order map) cannot
// be repaired. A checksum mismatch over a sound structure means the
// stale side is the checksum slot, which a rewrite repairs.
func arenaProblem(i int, structure, checksums error) (pr FsckProblem, ok bool) {
	switch {
	case structure != nil:
		return FsckProblem{Area: AreaBitmap, Index: i, Repairable: false, Detail: structure.Error()}, true
	case checksums != nil:
		return FsckProblem{Area: AreaBitmap, Index: i, Repairable: true, Detail: checksums.Error()}, true
	}
	return FsckProblem{}, false
}

// FsckReport is the typed result of a structural check. A clean image has
// no problems; Pending flags journals awaiting recovery (not an error —
// with pending journals the allocator and root checks are skipped, since
// recovery may legitimately need to roll in-place mutations back first).
type FsckReport struct {
	Pending  bool
	Problems []FsckProblem
}

// Clean reports a problem-free image.
func (r *FsckReport) Clean() bool { return len(r.Problems) == 0 }

// Repairable reports whether every problem found can be repaired in
// place from mirrors and checksums. False for a clean report's negation
// use — call Clean first.
func (r *FsckReport) Repairable() bool {
	for _, p := range r.Problems {
		if !p.Repairable {
			return false
		}
	}
	return true
}

// Err folds the report into an error: nil when clean, an
// ErrCorrupt-wrapped list of every problem otherwise.
func (r *FsckReport) Err() error {
	if r.Clean() {
		return nil
	}
	msgs := make([]string, len(r.Problems))
	for i, p := range r.Problems {
		msgs[i] = p.String()
	}
	return fmt.Errorf("%w: %s", ErrCorrupt, strings.Join(msgs, "; "))
}

// Fsck is the cheap structural pass Open runs before recovery. It returns
// nil for a healthy image and an ErrCorrupt-wrapped diagnostic naming
// every problem otherwise. FsckDevice returns the same findings typed.
func Fsck(dev *pmem.Device) error {
	r, err := FsckDevice(dev)
	if err != nil {
		return err
	}
	return r.Err()
}

// FsckDevice runs the structural check over an image read-only: header
// mirrors, geometry, journal state bytes, and — when every journal is
// idle — per-arena allocator metadata (structure and checksums) plus the
// root slots. The returned error is reserved for images that cannot even
// be parsed (not a pool, wrong version, broken geometry); everything
// else, repairable or not, lands in the report.
func FsckDevice(dev *pmem.Device) (*FsckReport, error) {
	r := &FsckReport{}
	if dev.Size() < headerSize {
		return nil, fmt.Errorf("%w: image of %d bytes is smaller than a pool header", ErrNotAPool, dev.Size())
	}
	h, goodA, goodB, err := headerOf(dev)
	if err != nil {
		return nil, err
	}
	if h.version != formatVersion {
		return nil, fmt.Errorf("%w: %d", ErrWrongVersion, h.version)
	}
	if pr, ok := headerProblem(goodA, goodB); ok {
		r.Problems = append(r.Problems, pr)
	}
	if int(h.size) != dev.Size() {
		return nil, fmt.Errorf("%w: header size %d != image size %d", ErrCorrupt, h.size, dev.Size())
	}
	g, err := computeGeometry(int(h.size), int(h.journals), int(h.journalCap))
	if err != nil {
		return nil, fmt.Errorf("%w: geometry: %v", ErrCorrupt, err)
	}
	if g.arenaHeap != h.arenaHeap {
		return nil, fmt.Errorf("%w: computed arena heap %d != recorded %d", ErrCorrupt, g.arenaHeap, h.arenaHeap)
	}
	for i := 0; i < g.nJournals; i++ {
		word := dev.Load8(g.bufOff + uint64(i)*g.bufCap)
		switch s := byte(word); {
		case s > 2:
			// An impossible state byte: recovery cannot know whether a
			// transaction was in flight, so nothing can repair this.
			r.Problems = append(r.Problems, FsckProblem{
				Area: AreaJournal, Index: i, Repairable: false,
				Detail: fmt.Sprintf("invalid state byte %d", s),
			})
		case s != 0: // 0 = idle; 1 running / 2 committing mean recovery has work
			r.Pending = true
		}
	}
	// Directory slot mirrors: each is a checksummed single-word echo of
	// its journal's state word, plus zero padding. Only internal
	// consistency is checked — the mirror is lazy, so a stale-but-valid
	// value is a legitimate post-crash state — which means a failure here
	// is at-rest damage, repairable from the buffer word (the authority).
	for i := 0; i < g.nJournals; i++ {
		if !journal.SlotOK(dev, g.dirOff, i) {
			r.Problems = append(r.Problems, dirSlotProblem(i))
		}
	}
	// Allocator metadata and the root pointer are only required to be
	// consistent when no journal is pending. A crash mid-transaction —
	// especially with adversarial cache eviction — can durably expose an
	// in-place mutation (e.g. a block-map byte) whose undo record sits in
	// a pending journal; recovery rolls it back, so condemning such an
	// image here would reject a legitimately recoverable pool.
	if !r.Pending {
		for i := 0; i < g.nJournals; i++ {
			meta := g.metaOff + uint64(i)*alloc.MetaSize(g.arenaHeap)
			heap := g.heapOff + uint64(i)*g.arenaHeap
			structure := alloc.Validate(dev, meta, heap, g.arenaHeap)
			var checksums error
			if structure == nil {
				checksums, structure = alloc.VerifyChecksums(dev, meta, heap, g.arenaHeap)
			}
			if pr, ok := arenaProblem(i, structure, checksums); ok {
				r.Problems = append(r.Problems, pr)
			}
		}
		if pr, ok := rootProblem(rootSlotsOK(dev)); ok {
			r.Problems = append(r.Problems, pr)
		}
		if root, _, ok := readRoot(dev); ok && root != 0 {
			if root < g.heapOff || root >= g.heapOff+uint64(g.nJournals)*g.arenaHeap {
				r.Problems = append(r.Problems, FsckProblem{
					Area: AreaRoot, Index: -1, Repairable: false,
					Detail: fmt.Sprintf("root offset %#x outside every arena heap", root),
				})
			}
		}
	}
	return r, nil
}
