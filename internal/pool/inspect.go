package pool

import (
	"fmt"

	"corundum/internal/alloc"
	"corundum/internal/pmem"
)

// Report is a structural description of a pool image, produced without
// running recovery — what corundum-fsck prints. It is safe on a crashed
// image: nothing is written.
type Report struct {
	Size        int
	Generation  uint64
	RootOff     uint64
	RootType    uint64
	Journals    int
	JournalCap  int
	ArenaHeap   uint64
	Arenas      []ArenaReport
	JournalInfo []JournalReport
	// Errors collects structural problems; empty means the image is
	// consistent (pending journals are not errors — recovery handles them).
	Errors []string
}

// ArenaReport summarizes one allocator arena.
type ArenaReport struct {
	Index     int
	InUse     uint64
	FreeBytes uint64
	RedoLog   string // "clean" or "committed (will replay)"
	Err       string // structural inconsistency, if any
}

// JournalReport summarizes one journal slot.
type JournalReport struct {
	Index   int
	State   string // idle | running (will roll back) | committing (will roll forward)
	Epoch   uint64
	Entries int
}

// Inspect reads the pool file at path and returns its structural report.
func Inspect(path string) (*Report, error) {
	h, err := readHeader(path)
	if err != nil {
		return nil, err
	}
	dev, err := pmem.OpenFile(path, int(h.size), pmem.Options{})
	if err != nil {
		return nil, err
	}
	return InspectDevice(dev)
}

// InspectDevice inspects an already-loaded pool image.
func InspectDevice(dev *pmem.Device) (*Report, error) {
	h, goodA, goodB, err := headerOf(dev)
	if err != nil {
		return nil, err
	}
	if h.version != formatVersion {
		return nil, fmt.Errorf("%w: %d", ErrWrongVersion, h.version)
	}
	root, rootType, rootOK := readRoot(dev)
	r := &Report{
		Size:       int(h.size),
		Generation: h.generation,
		RootOff:    root,
		RootType:   rootType,
		Journals:   int(h.journals),
		JournalCap: int(h.journalCap),
		ArenaHeap:  h.arenaHeap,
	}
	if !goodA || !goodB {
		r.Errors = append(r.Errors, "one static header copy failed its checksum (mirror intact)")
	}
	if !rootOK {
		r.Errors = append(r.Errors, "both root slots failed their checksum")
	}
	if r.Size != dev.Size() {
		r.Errors = append(r.Errors, fmt.Sprintf("header size %d != image size %d", r.Size, dev.Size()))
		return r, nil
	}
	g, err := computeGeometry(r.Size, r.Journals, r.JournalCap)
	if err != nil {
		r.Errors = append(r.Errors, "geometry: "+err.Error())
		return r, nil
	}
	if g.arenaHeap != r.ArenaHeap {
		r.Errors = append(r.Errors, fmt.Sprintf("computed arena heap %d != recorded %d", g.arenaHeap, r.ArenaHeap))
		return r, nil
	}

	for i := 0; i < r.Journals; i++ {
		bOff := g.bufOff + uint64(i)*g.bufCap
		word := dev.Load8(bOff)
		jr := JournalReport{Index: i, Epoch: word >> 8}
		switch byte(word) {
		case 0:
			jr.State = "idle"
		case 1:
			jr.State = "running (will roll back)"
		case 2:
			jr.State = "committing (will roll forward)"
		default:
			jr.State = fmt.Sprintf("corrupt (%d)", byte(word))
			r.Errors = append(r.Errors, fmt.Sprintf("journal %d: invalid state byte %d", i, byte(word)))
		}
		r.JournalInfo = append(r.JournalInfo, jr)
	}

	img := make([]byte, dev.Size()) // for the scratch copies below
	dev.LoadBytes(0, img)
	for i := 0; i < r.Journals; i++ {
		meta := g.metaOff + uint64(i)*alloc.MetaSize(g.arenaHeap)
		heap := g.heapOff + uint64(i)*g.arenaHeap
		ar := ArenaReport{Index: i, RedoLog: "clean"}
		if dev.Load8(meta) != 0 {
			ar.RedoLog = "committed (will replay)"
		}
		if err := alloc.Validate(dev, meta, heap, g.arenaHeap); err != nil {
			ar.Err = err.Error()
			r.Errors = append(r.Errors, fmt.Sprintf("arena %d: %v", i, err))
			r.Arenas = append(r.Arenas, ar)
			continue
		}
		// Opening replays a committed redo log; inspect a scratch copy so
		// fsck stays read-only.
		scratch := pmem.New(dev.Size(), pmem.Options{})
		scratch.StoreBytes(0, img)
		a := alloc.Open(scratch, meta, heap, g.arenaHeap)
		ar.InUse = a.InUse()
		ar.FreeBytes = a.FreeBytes()
		if err := a.CheckConsistency(); err != nil {
			ar.Err = err.Error()
			r.Errors = append(r.Errors, fmt.Sprintf("arena %d: %v", i, err))
		}
		r.Arenas = append(r.Arenas, ar)
	}

	if r.RootOff != 0 {
		inAnyArena := false
		for i := 0; i < r.Journals; i++ {
			start := g.heapOff + uint64(i)*g.arenaHeap
			if r.RootOff >= start && r.RootOff < start+g.arenaHeap {
				inAnyArena = true
			}
		}
		if !inAnyArena {
			r.Errors = append(r.Errors, fmt.Sprintf("root offset %#x outside every arena heap", r.RootOff))
		}
	}
	return r, nil
}
