//go:build !race

// The race detector's instrumentation allocates, so the zero-allocation
// pin runs only without it.

package repl

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// TestWriteFrameAllocs pins WriteFrame at zero heap allocations: it
// streams a frame into the writer's own buffer, header, payload words and
// checksum alike, including across the buffer's flushes.
func TestWriteFrameAllocs(t *testing.T) {
	words := make([]uint64, 4+3*64)
	for i := range words {
		words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	w := bufio.NewWriterSize(io.Discard, 256)
	if n := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(w, FrameDelta, words); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WriteFrame made %.1f allocations per frame, want 0", n)
	}
}

// TestReadFrameAllocs pins ReadFrame at one allocation per frame: the
// words it returns. Header, payload bytes and checksum stay in the
// reader's buffer.
func TestReadFrameAllocs(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrame(w, FrameDelta, make([]uint64, 4+3*64)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(buf.Bytes())
	r := bufio.NewReader(src)
	if n := testing.AllocsPerRun(100, func() {
		src.Reset(buf.Bytes())
		r.Reset(src)
		if _, _, err := ReadFrame(r); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("ReadFrame made %.1f allocations per frame, want 1 (its words)", n)
	}
}
