package pmem

import (
	"bytes"
	"strings"
	"testing"
)

// Regression for the eviction granularity fix: real PM persists aligned
// 8-byte words atomically, never whole cache lines, so an evicted dirty
// line may tear. Sweeping seeds must produce at least one outcome where a
// single line survives only in part — word-wise old/new mixed — which the
// old whole-line model could never produce.
func TestCrashWithEvictionTearsAtWordGranularity(t *testing.T) {
	newline := bytes.Repeat([]byte{0xFF}, CacheLineSize)
	torn := false
	for seed := int64(1); seed <= 64 && !torn; seed++ {
		d := newTracked(t, 4096)
		d.Write(0, newline) // dirty: every word differs from the zero shadow
		d.CrashWithEviction(seed)
		got := load(d, 0, CacheLineSize)
		var survived, lost int
		for w := 0; w < WordsPerLine; w++ {
			word := got[w*WordSize : (w+1)*WordSize]
			switch {
			case bytes.Equal(word, newline[:WordSize]):
				survived++
			case bytes.Equal(word, make([]byte, WordSize)):
				lost++
			default:
				t.Fatalf("seed %d: word %d torn WITHIN the 8-byte grain: %x", seed, w, word)
			}
		}
		if survived > 0 && lost > 0 {
			torn = true
			if d.MediaFaults().TornLines == 0 {
				t.Fatalf("seed %d: line tore (%d/%d words) but TornLines counter is 0", seed, survived, WordsPerLine)
			}
		}
	}
	if !torn {
		t.Fatal("no seed in 1..64 tore a fully-dirty line — eviction still looks line-atomic")
	}
}

func TestTornCandidatesAndMasks(t *testing.T) {
	d := newTracked(t, 4096)
	old := bytes.Repeat([]byte{0x11}, CacheLineSize)
	d.Write(0, old)
	d.Persist(0, CacheLineSize)
	// Overwrite words 0, 2, 5 without fencing.
	d.Write(0*WordSize, []byte{0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA})
	d.Write(2*WordSize, []byte{0xBB, 0xBB, 0xBB, 0xBB, 0xBB, 0xBB, 0xBB, 0xBB})
	d.Write(5*WordSize, []byte{0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC})

	cands := d.TornCandidates()
	if len(cands) != 1 || cands[0].Line != 0 {
		t.Fatalf("candidates = %v, want exactly line 0", cands)
	}
	if cands[0].Mask != 0b00100101 {
		t.Fatalf("candidate mask = %#b, want 0b00100101", cands[0].Mask)
	}

	// Persist only word 2: the crash image must hold new word 2, old
	// words 0 and 5.
	d.CrashTornMasks(map[uint32]uint8{0: 1 << 2})
	got := load(d, 0, CacheLineSize)
	if !bytes.Equal(got[2*WordSize:3*WordSize], bytes.Repeat([]byte{0xBB}, WordSize)) {
		t.Fatalf("masked word 2 did not persist: %x", got[2*WordSize:3*WordSize])
	}
	if !bytes.Equal(got[0:WordSize], old[:WordSize]) || !bytes.Equal(got[5*WordSize:6*WordSize], old[:WordSize]) {
		t.Fatal("unmasked words persisted despite tear mask")
	}
	mf := d.MediaFaults()
	if mf.TornLines != 1 || mf.TornWords != 1 {
		t.Fatalf("MediaFaults = %+v, want 1 torn line / 1 torn word", mf)
	}
}

func TestCrashTornMasksPersistsFlushedCopy(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	d.Flush(0, WordSize) // pending: flushed, not fenced
	cands := d.TornCandidates()
	if len(cands) != 1 || cands[0].Mask != 1 {
		t.Fatalf("candidates = %v, want line 0 mask 0b1", cands)
	}
	d.CrashTornMasks(map[uint32]uint8{0: 1})
	if got := load(d, 0, 1)[0]; got != 1 {
		t.Fatalf("flushed word did not persist under mask: %#x", got)
	}
}

func TestCrashTornMasksFencedLineIsNoop(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{7})
	d.Persist(0, 1)
	d.CrashTornMasks(map[uint32]uint8{1: 0xFF}) // line 1 is clean: fenced lines cannot tear
	if got := load(d, 0, 1)[0]; got != 7 {
		t.Fatal("persisted data lost")
	}
	if got := load(d, CacheLineSize, 1)[0]; got != 0 {
		t.Fatal("clean line changed under torn mask")
	}
}

func TestInjectBitFlipCorruptsDurableImage(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(0, []byte{0x0F})
	d.Persist(0, 1)
	d.InjectBitFlip(0, 4)
	if got := load(d, 0, 1)[0]; got != 0x1F {
		t.Fatalf("live byte = %#x, want 0x1F", got)
	}
	d.Crash()
	if got := load(d, 0, 1)[0]; got != 0x1F {
		t.Fatalf("flip did not survive crash: %#x (at-rest corruption must be durable)", got)
	}
	if d.MediaFaults().BitFlips != 1 {
		t.Fatal("BitFlips counter not charged")
	}
}

func TestMarkBadLineScramblesAndSurvivesCrash(t *testing.T) {
	d := newTracked(t, 4096)
	d.Write(CacheLineSize, bytes.Repeat([]byte{0x11}, CacheLineSize))
	d.Persist(CacheLineSize, CacheLineSize)
	d.MarkBadLine(1)
	if got := load(d, CacheLineSize, 1)[0]; got == 0x11 {
		t.Fatal("bad line still readable as original data")
	}
	d.Crash()
	if lines := d.BadLines(); len(lines) != 1 || lines[0] != 1 {
		t.Fatalf("BadLines after crash = %v, want [1]", lines)
	}
	// Installing a known-good image repairs the module in this model.
	d.RestoreDurable(make([]byte, 4096))
	if len(d.BadLines()) != 0 {
		t.Fatal("RestoreDurable did not clear bad lines")
	}
	if d.MediaFaults().BadLines != 1 {
		t.Fatal("BadLines counter not charged")
	}
}

func TestMediaFaultsAppearInFlightRecorder(t *testing.T) {
	d := newTracked(t, 4096)
	d.SetFlightRecorder(64)
	d.Write(0, bytes.Repeat([]byte{0xEE}, CacheLineSize))
	d.CrashTornMasks(map[uint32]uint8{0: 0b1})
	d.InjectBitFlip(100, 0)
	d.MarkBadLine(2)
	dump := FormatFlight(d.FlightEvents())
	for _, want := range []string{"TEAR", "FLIP", "BADLINE"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("flight dump missing %s marker:\n%s", want, dump)
		}
	}
}
