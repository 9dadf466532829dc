package pool

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"corundum/internal/pmem"
)

// On-media layout of the 512-byte header region (format v2):
//
//	[  0,128)  static header copy A
//	[128,256)  static header copy B
//	[256,280)  root slot A: [root u64][rootType u64][crc32 u64]
//	[320,344)  root slot B
//	[344,512)  reserved
//
// Every metadata word a single at-rest media fault could destroy is
// mirrored. The static header carries a sequence number and a CRC32 over
// its fields; writers persist copy A, then copy B, so a crash (even a
// torn one — the CRC rejects partial copies) leaves at least one valid
// copy, and readers pick the valid copy with the higher sequence,
// repairing the other. The root slots are mutated only inside
// transactions (both copies undo-logged together), so they only diverge
// through media damage, which their CRCs expose and the mirror repairs.
const (
	headerCopySize = 2 * pmem.CacheLineSize
	hdrCopyAOff    = 0
	hdrCopyBOff    = headerCopySize
	rootSlotAOff   = 256
	rootSlotBOff   = 320
	rootSlotSize   = 24
	headerSize     = 512
)

// Static header field offsets within one copy. The CRC32 at fCRC covers
// bytes [0, fCRC).
const (
	fMagic      = 0
	fVersion    = 8
	fSize       = 16
	fJournals   = 24
	fJournalCap = 32
	fArenaHeap  = 40
	fGeneration = 48
	fSeq        = 56
	fCRC        = 64
)

// header is the decoded static header of a pool.
type header struct {
	version    uint64
	size       uint64
	journals   uint64
	journalCap uint64
	arenaHeap  uint64
	generation uint64
	seq        uint64
}

func encodeHeader(buf []byte, h header) {
	put := func(off int, v uint64) { binary.LittleEndian.PutUint64(buf[off:], v) }
	put(fMagic, magic)
	put(fVersion, h.version)
	put(fSize, h.size)
	put(fJournals, h.journals)
	put(fJournalCap, h.journalCap)
	put(fArenaHeap, h.arenaHeap)
	put(fGeneration, h.generation)
	put(fSeq, h.seq)
	binary.LittleEndian.PutUint64(buf[fCRC:], uint64(crc32.ChecksumIEEE(buf[:fCRC])))
}

// decodeHeader parses one header copy; ok is false when the magic or the
// CRC does not check out (a torn write or at-rest damage).
func decodeHeader(b []byte) (header, bool) {
	get := func(off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
	if get(fMagic) != magic {
		return header{}, false
	}
	if uint32(get(fCRC)) != crc32.ChecksumIEEE(b[:fCRC]) {
		return header{}, false
	}
	return header{
		version:    get(fVersion),
		size:       get(fSize),
		journals:   get(fJournals),
		journalCap: get(fJournalCap),
		arenaHeap:  get(fArenaHeap),
		generation: get(fGeneration),
		seq:        get(fSeq),
	}, true
}

// chooseHeader picks the authoritative static header from an image: the
// valid copy with the higher sequence number. goodA/goodB report which
// copies individually validated, so callers can repair the loser.
func chooseHeader(img []byte) (h header, goodA, goodB bool, err error) {
	a, okA := decodeHeader(img[hdrCopyAOff : hdrCopyAOff+headerCopySize])
	b, okB := decodeHeader(img[hdrCopyBOff : hdrCopyBOff+headerCopySize])
	switch {
	case okA && okB:
		if b.seq > a.seq {
			return b, true, true, nil
		}
		return a, true, true, nil
	case okA:
		return a, true, false, nil
	case okB:
		return b, false, true, nil
	}
	// Neither copy validates. If neither even carries the magic, this is
	// not a pool at all; otherwise both mirrors are damaged.
	if binary.LittleEndian.Uint64(img[hdrCopyAOff+fMagic:]) != magic &&
		binary.LittleEndian.Uint64(img[hdrCopyBOff+fMagic:]) != magic {
		return header{}, false, false, ErrNotAPool
	}
	return header{}, false, false, fmt.Errorf("%w: both static header copies failed their checksum", ErrCorrupt)
}

// headerOf is chooseHeader over a device's header copies.
func headerOf(dev *pmem.Device) (h header, goodA, goodB bool, err error) {
	var img [2 * headerCopySize]byte
	dev.LoadBytes(0, img[:])
	return chooseHeader(img[:])
}

// writeHeader persists h to both copies, A before B, so a crash at any
// point leaves a valid copy carrying either the old or the new sequence.
// Callers bump h.seq before writing; it also serves as mirror repair
// (both copies leave identical and valid).
func writeHeader(dev *pmem.Device, h header) {
	var buf [headerCopySize]byte
	encodeHeader(buf[:], h)
	dev.Write(hdrCopyAOff, buf[:])
	dev.Persist(hdrCopyAOff, headerCopySize)
	dev.Write(hdrCopyBOff, buf[:])
	dev.Persist(hdrCopyBOff, headerCopySize)
}

// encodeRootSlot renders one root slot: root offset, root type hash, and
// a CRC32 (stored widened to a word) over the two.
func encodeRootSlot(buf []byte, root, typ uint64) {
	binary.LittleEndian.PutUint64(buf[0:], root)
	binary.LittleEndian.PutUint64(buf[8:], typ)
	binary.LittleEndian.PutUint64(buf[16:], uint64(crc32.ChecksumIEEE(buf[:16])))
}

// rootSlot reads and parses the root slot at off; ok is false on CRC
// mismatch.
func rootSlot(dev *pmem.Device, off uint64) (root, typ uint64, ok bool) {
	var b [rootSlotSize]byte
	dev.LoadBytes(off, b[:])
	if uint32(binary.LittleEndian.Uint64(b[16:])) != crc32.ChecksumIEEE(b[:16]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]), true
}

// readRoot returns the effective root from an image, preferring slot A
// and falling back to the mirror. ok is false only when BOTH slots fail
// their CRC — the root is then unknown, which is a corruption condition
// (a fresh pool has both slots valid with root 0).
func readRoot(dev *pmem.Device) (root, typ uint64, ok bool) {
	if r, t, okA := rootSlot(dev, rootSlotAOff); okA {
		return r, t, true
	}
	if r, t, okB := rootSlot(dev, rootSlotBOff); okB {
		return r, t, true
	}
	return 0, 0, false
}
