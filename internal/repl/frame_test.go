package repl

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"corundum/internal/workloads"
)

func encodeFrames(t *testing.T, frames []Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, f := range frames {
		if err := WriteFrame(w, FrameDelta, deltaWords(f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameGoldenBytes pins the wire bytes: a delta frame and a heartbeat
// as the hash/crc32 implementation of WriteFrame encoded them, through
// writers whose buffers force a flush inside every word.
func TestFrameGoldenBytes(t *testing.T) {
	const golden = "0100000050000000020000000000000007000000000000000100000000000000" +
		"0200000000000000000000000000000005000000000000000900000000000000" +
		"01000000000000000000000000010000000000000000000082afefbd02000000" +
		"100000000300000000000000efbeadde00000000c0d9090a"
	f := Frame{Epoch: 2, Seq: 7, Shard: 1, Ops: []workloads.Op{{Key: 5, Val: 9}, {Del: true, Key: 1 << 40}}}
	for _, size := range []int{4096, 16, 11} {
		var buf bytes.Buffer
		w := bufio.NewWriterSize(&buf, size)
		if err := WriteFrame(w, FrameDelta, deltaWords(f)); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(w, FrameHeartbeat, []uint64{3, 0xDEADBEEF}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != golden {
			t.Fatalf("buffer %d: wire bytes\n%s\nwant\n%s", size, got, golden)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	in := Frame{Epoch: 3, Seq: 42, Shard: 1, Ops: []workloads.Op{
		{Key: 7, Val: 70},
		{Del: true, Key: 8},
		{Key: 1<<63 + 5, Val: 9},
	}}
	raw := encodeFrames(t, []Frame{in})
	if len(raw) != in.WireSize() {
		t.Fatalf("wire size = %d, WireSize() = %d", len(raw), in.WireSize())
	}
	typ, words, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameDelta {
		t.Fatalf("type = %d, want FrameDelta", typ)
	}
	out, err := decodeDelta(words)
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != in.Epoch || out.Seq != in.Seq || out.Shard != in.Shard || len(out.Ops) != len(in.Ops) {
		t.Fatalf("round trip mangled the frame: %+v vs %+v", out, in)
	}
	for i := range in.Ops {
		if out.Ops[i] != in.Ops[i] {
			t.Fatalf("op %d: got %+v, want %+v", i, out.Ops[i], in.Ops[i])
		}
	}
}

// TestFrameGapRoundTrip pins that a gap frame (nil ops) survives the wire:
// replicas must advance their cursor over it.
func TestFrameGapRoundTrip(t *testing.T) {
	raw := encodeFrames(t, []Frame{{Epoch: 1, Seq: 9}})
	_, words, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := decodeDelta(words)
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 9 || len(f.Ops) != 0 {
		t.Fatalf("gap frame decoded as %+v", f)
	}
}

// TestFrameCorruptionRejected flips every single byte of an encoded frame
// in turn and asserts each corruption is caught: either the CRC check
// fires (ErrBadFrame) or — when the flipped byte inflates the claimed
// length — the read fails on truncation, also ErrBadFrame. No corrupt
// variant may decode silently.
func TestFrameCorruptionRejected(t *testing.T) {
	raw := encodeFrames(t, []Frame{{Epoch: 2, Seq: 5, Ops: []workloads.Op{{Key: 1, Val: 2}}}})
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		typ, words, err := ReadFrame(bufio.NewReader(bytes.NewReader(mut)))
		if err == nil {
			// The only acceptable silent decode is none at all.
			t.Fatalf("flipping byte %d went undetected (typ %d, %d words)", i, typ, len(words))
		}
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("flipping byte %d: err = %v, want ErrBadFrame", i, err)
		}
	}
}

// TestFrameTruncationRejected cuts the stream at every possible byte
// boundary: a clean EOF is only ever reported at a frame boundary.
func TestFrameTruncationRejected(t *testing.T) {
	raw := encodeFrames(t, []Frame{{Epoch: 1, Seq: 1, Ops: []workloads.Op{{Key: 3, Val: 4}}}})
	for cut := 0; cut < len(raw); cut++ {
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw[:cut])))
		switch {
		case cut == 0:
			if err != io.EOF {
				t.Fatalf("empty stream: err = %v, want io.EOF", err)
			}
		case err == nil:
			t.Fatalf("truncation at byte %d went undetected", cut)
		case !errors.Is(err, ErrBadFrame):
			t.Fatalf("truncation at byte %d: err = %v, want ErrBadFrame", cut, err)
		}
	}
}

// TestFrameOversizedPayloadRejected pins the allocation bound: a frame
// whose header claims an enormous payload is refused before any read.
func TestFrameOversizedPayloadRejected(t *testing.T) {
	raw := encodeFrames(t, []Frame{{Epoch: 1, Seq: 1}})
	mut := append([]byte(nil), raw...)
	mut[4], mut[5], mut[6], mut[7] = 0xff, 0xff, 0xff, 0x7f
	_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(mut)))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized payload: err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeDeltaShapeChecks(t *testing.T) {
	if _, err := decodeDelta([]uint64{1, 2}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short payload: %v", err)
	}
	// Count word disagrees with the payload length.
	if _, err := decodeDelta([]uint64{1, 2, 0, 5, 0, 1, 2}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("count mismatch: %v", err)
	}
}
