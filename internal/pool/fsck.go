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

func (p FsckProblem) String() string {
	where := string(p.Area)
	if p.Index >= 0 {
		where = fmt.Sprintf("%s %d", p.Area, p.Index)
	}
	state := "unrepairable"
	if p.Repairable {
		state = "repairable"
	}
	return fmt.Sprintf("%s: %s (%s)", where, p.Detail, state)
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
	h, goodA, goodB, err := headerOf(dev)
	if err != nil {
		return nil, err
	}
	if h.version != formatVersion {
		return nil, fmt.Errorf("%w: %d", ErrWrongVersion, h.version)
	}
	if !goodA || !goodB {
		bad := "A"
		if !goodB {
			bad = "B"
		}
		r.Problems = append(r.Problems, FsckProblem{
			Area: AreaHeader, Index: -1, Repairable: true,
			Detail: fmt.Sprintf("static header copy %s failed its checksum; mirror is intact", bad),
		})
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
			r.Problems = append(r.Problems, FsckProblem{
				Area: AreaJournalDir, Index: i, Repairable: true,
				Detail: "directory slot failed its checksum; buffer state word is authoritative",
			})
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
			structural := alloc.Validate(dev, meta, heap, g.arenaHeap)
			if structural != nil {
				r.Problems = append(r.Problems, FsckProblem{
					Area: AreaBitmap, Index: i, Repairable: false,
					Detail: structural.Error(),
				})
				continue
			}
			if err := alloc.VerifyChecksums(dev, meta, heap, g.arenaHeap); err != nil {
				// The structure itself walks clean, so the stale side is
				// the checksum slot: a repairing scrub rewrites it.
				r.Problems = append(r.Problems, FsckProblem{
					Area: AreaBitmap, Index: i, Repairable: true,
					Detail: err.Error(),
				})
			}
		}
		_, _, okA := rootSlot(dev, rootSlotAOff)
		_, _, okB := rootSlot(dev, rootSlotBOff)
		switch {
		case !okA && !okB:
			r.Problems = append(r.Problems, FsckProblem{
				Area: AreaRoot, Index: -1, Repairable: false,
				Detail: "both root slots failed their checksum",
			})
		case !okA || !okB:
			bad := "A"
			if !okB {
				bad = "B"
			}
			r.Problems = append(r.Problems, FsckProblem{
				Area: AreaRoot, Index: -1, Repairable: true,
				Detail: fmt.Sprintf("root slot %s failed its checksum; mirror is intact", bad),
			})
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
