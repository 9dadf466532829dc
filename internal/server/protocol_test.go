package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"corundum/internal/obs"
)

func TestParseCommand(t *testing.T) {
	cases := []struct {
		line string
		want Command
	}{
		{"GET 7", Command{Kind: CmdGet, Key: 7}},
		{"get 7", Command{Kind: CmdGet, Key: 7}},
		{"SET 1 2", Command{Kind: CmdSet, Key: 1, Val: 2}},
		{"set 18446744073709551615 0", Command{Kind: CmdSet, Key: 1<<64 - 1}},
		{"DEL 42", Command{Kind: CmdDel, Key: 42}},
		{"SCAN", Command{Kind: CmdScan}},
		{"SCAN 10", Command{Kind: CmdScan, Limit: 10}},
		{"  SET  3  4  ", Command{Kind: CmdSet, Key: 3, Val: 4}},
		{"SET 3 4\r", Command{Kind: CmdSet, Key: 3, Val: 4}},
		{"INFO", Command{Kind: CmdInfo}},
		{"STATS", Command{Kind: CmdStats}},
		{"PING", Command{Kind: CmdPing}},
		{"QUIT", Command{Kind: CmdQuit}},
	}
	for _, c := range cases {
		got, err := ParseCommand([]byte(c.line))
		if err != nil {
			t.Errorf("ParseCommand(%q): %v", c.line, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseCommand(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}

func TestParseCommandErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"BOGUS 1",
		"GET",
		"GET 1 2",
		"GET x",
		"GET -1",
		"GET 99999999999999999999999999", // > 20 digits
		"SET 184467440737095516160 1",    // 21 digits, overflows
		"SET 1",
		"SET 1 2 3",
		"SCAN 1 2",
		"SCAN 99999999999999999999",
		"SCAN 2000000000", // over the 1<<30 cap
		"INFO now",
		"PING PING",
		"GET \x80\x81",
		"S\xffT 1 2",
	}
	for _, line := range bad {
		if _, err := ParseCommand([]byte(line)); err == nil {
			t.Errorf("ParseCommand(%q) succeeded, want error", line)
		}
	}

	if _, err := ParseCommand([]byte("GET \x00")); !errors.Is(err, ErrBinaryLine) {
		t.Errorf("NUL byte: got %v, want ErrBinaryLine", err)
	}
	if _, err := ParseCommand([]byte("GET\t1")); !errors.Is(err, ErrBinaryLine) {
		t.Errorf("tab separator: got %v, want ErrBinaryLine", err)
	}
	long := "SET 1 " + strings.Repeat("2", MaxLineLen)
	if _, err := ParseCommand([]byte(long)); !errors.Is(err, ErrLineTooLong) {
		t.Errorf("oversized line: got %v, want ErrLineTooLong", err)
	}
}

func TestResponseWriters(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeOK(w)
	writeNil(w)
	writeInt(w, 1<<64-1)
	writeInt(w, 0)
	writePair(w, 0, 1<<64-1)
	writeErr(w, errors.New("boom\r\nwith newline"))
	writeBulk(w, "a: 1\n")
	w.Flush()
	want := "+OK\r\n$-1\r\n:18446744073709551615\r\n:0\r\n0 18446744073709551615\r\n-ERR boom  with newline\r\n$5\r\na: 1\n\r\n"
	if buf.String() != want {
		t.Errorf("responses = %q, want %q", buf.String(), want)
	}
}

// TestIntRepliesSpanBufferEdge writes integer replies through a writer
// whose free space is repeatedly smaller than one reply: the bytes must
// come out the same as through a roomy one.
func TestIntRepliesSpanBufferEdge(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriterSize(&buf, 16) // bufio's minimum; one max-width pair is 43 bytes
	var want strings.Builder
	for i := uint64(0); i < 100; i++ {
		n := i * 0x0123456789ABCDEF
		writeInt(w, n)
		writePair(w, n, ^n)
		fmt.Fprintf(&want, ":%d\r\n%d %d\r\n", n, n, ^n)
	}
	w.Flush()
	if buf.String() != want.String() {
		t.Errorf("replies through a 16-byte writer differ from fmt's rendering")
	}
}

// TestReplyWritersDoNotAllocate pins the per-reply hot path — GET hit,
// DEL ack, SCAN row, +OK, miss — at zero allocations.
func TestReplyWritersDoNotAllocate(t *testing.T) {
	w := bufio.NewWriter(io.Discard)
	n := uint64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		n = n*0x9E3779B97F4A7C15 + 1
		writeInt(w, n)
		writePair(w, n, ^n)
		writeOK(w)
		writeNil(w)
	})
	if allocs != 0 {
		t.Errorf("reply writers allocate %.1f times per round, want 0", allocs)
	}
}

// TestHistBucket: a batch of each size lands in the registry histogram
// bucket whose STATS label names it.
func TestHistBucket(t *testing.T) {
	// Every label, as the benchmark and dashboards read them.
	cases := map[int]string{1: "1", 2: "2", 3: "3-4", 4: "3-4", 5: "5-8", 8: "5-8", 9: "9-16", 16: "9-16",
		17: "17-32", 32: "17-32", 33: "33-64", 64: "33-64", 65: ">64", 1000: ">64"}
	for n, want := range cases {
		h := obs.NewRegistry().Histogram("server_batch_size", "", nil, batchSizeBuckets)
		h.Observe(float64(n))
		for i, c := range h.BucketCounts() {
			if got := batchSizeLabels[i]; c == 1 && got != want {
				t.Errorf("a batch of %d lands in bucket %q, want %q", n, got, want)
			}
		}
	}
	if len(batchSizeLabels) != len(batchSizeBuckets)+1 {
		t.Errorf("%d labels for %d buckets and +Inf", len(batchSizeLabels), len(batchSizeBuckets))
	}
}
