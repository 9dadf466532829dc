package crc

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestMatchesHashCRC32 holds Checksum and Update to hash/crc32 bit for
// bit: every length from 0 to 4096 (each tail length and alignment the
// eight-byte loop can meet), and chained updates split at random points.
func TestMatchesHashCRC32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 4097)
	rng.Read(buf)
	for n := 0; n <= 4096; n++ {
		for _, start := range []int{0, 1} {
			p := buf[start : start+n]
			if got, want := Checksum(p), crc32.ChecksumIEEE(p); got != want {
				t.Fatalf("Checksum(%d bytes at +%d) = %#x, want %#x", n, start, got, want)
			}
		}
		seed := rng.Uint32()
		if got, want := Update(seed, buf[:n]), crc32.Update(seed, crc32.IEEETable, buf[:n]); got != want {
			t.Fatalf("Update(%#x, %d bytes) = %#x, want %#x", seed, n, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		p := buf[:rng.Intn(len(buf))]
		var got uint32
		for rest := p; len(rest) > 0; {
			k := rng.Intn(len(rest) + 1)
			got = Update(got, rest[:k])
			rest = rest[k:]
		}
		if want := crc32.ChecksumIEEE(p); got != want {
			t.Fatalf("chained Update over %d bytes = %#x, want %#x", len(p), got, want)
		}
	}
}

// TestWordsMatchesBytes checks Words against hash/crc32 over the words'
// little-endian bytes.
func TestWordsMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 64; n++ {
		words := make([]uint64, n)
		b := make([]byte, 8*n)
		for i := range words {
			words[i] = rng.Uint64()
			binary.LittleEndian.PutUint64(b[8*i:], words[i])
		}
		if got, want := Words(words...), crc32.ChecksumIEEE(b); got != want {
			t.Fatalf("Words(%d words) = %#x, want %#x", n, got, want)
		}
	}
}

// TestNoHeap pins what the package exists for: a stack buffer handed to
// it stays on the stack.
func TestNoHeap(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		var b [25]byte
		b[3] = 7
		_ = Update(Checksum(b[:]), b[:9])
	}); n != 0 {
		t.Errorf("checksumming a stack buffer: %v allocations, want 0", n)
	}
}

func FuzzMatchesHashCRC32(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0xFFFFFFFF), []byte("corundum"))
	f.Add(uint32(7), make([]byte, 65))
	f.Fuzz(func(t *testing.T, seed uint32, p []byte) {
		if got, want := Update(seed, p), crc32.Update(seed, crc32.IEEETable, p); got != want {
			t.Fatalf("Update(%#x, %x) = %#x, want %#x", seed, p, got, want)
		}
	})
}
