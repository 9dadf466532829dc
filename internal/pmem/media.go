package pmem

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// This file is the media-fault engine: the device's model of what can go
// wrong BELOW fail-stop. A plain Crash leaves a clean prefix image; real
// persistent memory additionally
//
//   - tears unfenced stores: eviction persists an aligned 8-byte word at a
//     time, never a whole cache line atomically (CrashTorn, CrashTornMasks);
//   - rots at rest: a bit flips in data that was durably fenced long ago
//     (InjectBitFlip);
//   - loses whole lines: the module reports a range unreadable and returns
//     poison (MarkBadLine).
//
// Every injection is charged to MediaFaults counters and dropped into the
// flight recorder, so a corrupted image names the faults that produced it.

// WordSize is the atomicity grain of the emulated medium: aligned 8-byte
// stores persist atomically, nothing larger.
const WordSize = 8

// WordsPerLine is the number of atomic words in one cache line; torn-line
// masks carry one bit per word.
const WordsPerLine = CacheLineSize / WordSize

// TornLine names one at-risk cache line before a crash: Mask has bit i set
// when word i of the line differs between what would persist if the line
// were evicted and what survives a plain crash. Enumerating subsets of
// Mask enumerates every distinct torn outcome for the line.
type TornLine struct {
	Line uint32 // cache-line index
	Mask uint8  // at-risk words: bit i = word i differs from the fenced shadow
}

// MediaFaultCounts is a snapshot of cumulative injected media faults.
type MediaFaultCounts struct {
	TornLines uint64 // lines that persisted partially (a genuine tear)
	TornWords uint64 // 8-byte words persisted out of at-risk lines
	BitFlips  uint64 // at-rest single-bit corruptions injected
	BadLines  uint64 // lines marked unreadable
}

// MediaFaults returns a snapshot of the media-fault injection counters.
func (d *Device) MediaFaults() MediaFaultCounts {
	return MediaFaultCounts{
		TornLines: d.media.tornLines.Load(),
		TornWords: d.media.tornWords.Load(),
		BitFlips:  d.media.bitFlips.Load(),
		BadLines:  d.media.badLines.Load(),
	}
}

// TornCandidates reports, without crashing, every cache line whose content
// could differ after a crash depending on eviction: dirty lines (unflushed
// stores) and pending lines (flushed but not fenced), each with the mask
// of 8-byte words that differ from the fenced shadow. A harness enumerates
// torn schedules by picking a submask per line and passing the choice to
// CrashTornMasks. Requires TrackCrash.
func (d *Device) TornCandidates() []TornLine {
	if !d.track {
		panic("pmem: TornCandidates requires Options.TrackCrash")
	}
	d.shadowMu.Lock()
	defer d.shadowMu.Unlock()
	var out []TornLine
	seen := make(map[uint32]bool)
	for w := range d.dirty {
		bits := d.dirty[w].Load()
		for b := 0; bits != 0; b++ {
			if bits&1 != 0 {
				line := uint32(w*64 + b)
				start := uint64(line) * CacheLineSize
				if m := d.wordDiffLocked(line, d.buf[start:start+CacheLineSize]); m != 0 {
					out = append(out, TornLine{Line: line, Mask: m})
				}
				seen[line] = true
			}
			bits >>= 1
		}
	}
	for line, data := range d.pending {
		if seen[line] {
			continue // dirty again after the flush; the dirty entry covers it
		}
		if m := d.wordDiffLocked(line, data); m != 0 {
			out = append(out, TornLine{Line: line, Mask: m})
		}
	}
	slices.SortFunc(out, func(a, b TornLine) int { return int(a.Line) - int(b.Line) })
	return out
}

// CrashTorn simulates power loss with word-granularity tearing: every
// at-risk word (see TornCandidates) persists independently with
// probability 1/2 under the given seed. It is the seeded counterpart of
// CrashTornMasks for sweeps too large to enumerate. Requires TrackCrash.
func (d *Device) CrashTorn(seed int64) {
	if !d.track {
		panic("pmem: CrashTorn requires Options.TrackCrash")
	}
	rng := rand.New(rand.NewSource(seed))
	masks := make(map[uint32]uint8)
	for _, c := range d.TornCandidates() {
		masks[c.Line] = c.Mask & uint8(rng.Intn(256))
	}
	d.CrashTornMasks(masks)
}

// CrashTornMasks simulates power loss where exactly the chosen words
// persist: for each line→mask entry, word i of the line survives iff bit
// i is set (drawn from the latest store if the line is dirty, from the
// flushed copy if it is merely pending). Words of at-risk lines not named
// by masks are lost, like a plain Crash. Passing a mask for a line that is
// neither dirty nor pending is a no-op: fenced lines cannot tear.
// Requires TrackCrash.
func (d *Device) CrashTornMasks(masks map[uint32]uint8) {
	if !d.track {
		panic("pmem: CrashTornMasks requires Options.TrackCrash")
	}
	d.markCrash(ScopeUserData)
	d.poisoned.Store(false) // the machine reboots
	d.shadowMu.Lock()
	defer d.shadowMu.Unlock()
	lines := make([]uint32, 0, len(masks))
	for line := range masks {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	for _, line := range lines {
		start := uint64(line) * CacheLineSize
		if start+CacheLineSize > uint64(len(d.buf)) {
			panic(fmt.Sprintf("pmem: CrashTornMasks line %d outside device", line))
		}
		src := d.buf[start : start+CacheLineSize]
		if data, ok := d.pending[line]; ok && !d.lineDirtyLocked(line) {
			src = data
		}
		d.persistWordsLocked(line, masks[line], src)
	}
	clear(d.pending)
	for i := range d.dirty {
		d.dirty[i].Store(0)
	}
	copy(d.buf, d.shadow)
}

// persistWordsLocked copies the masked 8-byte words of src (one cache
// line's worth) into the shadow at line, counting genuine tears. Caller
// holds shadowMu.
func (d *Device) persistWordsLocked(line uint32, mask uint8, src []byte) {
	diff := d.wordDiffLocked(line, src)
	applied := mask & diff
	if applied == 0 {
		return // nothing the crash outcome depends on survived
	}
	start := uint64(line) * CacheLineSize
	for i := 0; i < WordsPerLine; i++ {
		if applied&(1<<i) != 0 {
			copy(d.shadow[start+uint64(i)*WordSize:start+uint64(i+1)*WordSize], src[i*WordSize:(i+1)*WordSize])
		}
	}
	d.media.tornWords.Add(uint64(bits.OnesCount8(applied)))
	if applied != diff {
		// The line persisted only in part: a tear the flight recorder
		// should explain.
		d.media.tornLines.Add(1)
		if f := d.flight.Load(); f != nil {
			f.Record(uint8(OpTear), uint8(ScopeUserData), start, uint64(applied))
		}
	}
}

// wordDiffLocked returns the mask of 8-byte words where src (one line's
// candidate content) differs from the fenced shadow. Caller holds shadowMu.
func (d *Device) wordDiffLocked(line uint32, src []byte) uint8 {
	start := uint64(line) * CacheLineSize
	var m uint8
	for i := 0; i < WordsPerLine; i++ {
		a := src[i*WordSize : (i+1)*WordSize]
		b := d.shadow[start+uint64(i)*WordSize : start+uint64(i+1)*WordSize]
		if string(a) != string(b) {
			m |= 1 << i
		}
	}
	return m
}

func (d *Device) lineDirtyLocked(line uint32) bool {
	return d.dirty[line/64].Load()&(1<<(line%64)) != 0
}

// InjectBitFlip flips one bit of the byte at off in both the live and the
// durable image, modelling at-rest corruption (bit rot) of data that was
// already fenced. The flip is recorded in the flight recorder and counted
// in MediaFaults; detection is the software's job.
func (d *Device) InjectBitFlip(off uint64, bit uint8) {
	d.bounds(off, 1)
	m := byte(1) << (bit % 8)
	d.buf[off] ^= m
	if d.track {
		d.shadowMu.Lock()
		d.shadow[off] ^= m
		d.shadowMu.Unlock()
	}
	d.media.bitFlips.Add(1)
	if f := d.flight.Load(); f != nil {
		f.Record(uint8(OpFlip), uint8(ScopeUserData), off, uint64(bit%8))
	}
}

// MarkBadLine marks one cache line unreadable: its bytes are scrambled in
// both the live and durable image (the poison pattern a failed media read
// returns) and the line joins BadLines so scrub passes can quarantine the
// range. Bad lines survive Crash — the module is still damaged after a
// reboot — but are cleared by RestoreDurable.
func (d *Device) MarkBadLine(line uint32) {
	start := uint64(line) * CacheLineSize
	d.bounds(start, CacheLineSize)
	for i := start; i < start+CacheLineSize; i++ {
		d.buf[i] ^= 0xA5
	}
	if d.track {
		d.shadowMu.Lock()
		for i := start; i < start+CacheLineSize; i++ {
			d.shadow[i] ^= 0xA5
		}
		d.shadowMu.Unlock()
	}
	d.badMu.Lock()
	if d.bad == nil {
		d.bad = make(map[uint32]struct{})
	}
	d.bad[line] = struct{}{}
	d.badMu.Unlock()
	d.media.badLines.Add(1)
	if f := d.flight.Load(); f != nil {
		f.Record(uint8(OpBadLine), uint8(ScopeUserData), start, CacheLineSize)
	}
}

// BadLines returns the sorted cache-line indexes currently marked
// unreadable.
func (d *Device) BadLines() []uint32 {
	d.badMu.Lock()
	defer d.badMu.Unlock()
	out := make([]uint32, 0, len(d.bad))
	for line := range d.bad {
		out = append(out, line)
	}
	slices.Sort(out)
	return out
}
