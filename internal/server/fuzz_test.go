package server

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"corundum/internal/repl"
)

// FuzzParseCommand checks that the protocol parser never panics and obeys
// its contract on arbitrary byte strings: it either returns an error or a
// well-formed Command whose re-rendering parses back to the same value.
func FuzzParseCommand(f *testing.F) {
	// Seed corpus: the happy path, truncated lines, oversized keys, and
	// binary payloads (the corner cases a line protocol meets in the wild).
	seeds := [][]byte{
		[]byte("SET 1 2"),
		[]byte("GET 7\r"),
		[]byte("DEL 42"),
		[]byte("SCAN 100"),
		[]byte("INFO"),
		[]byte("PING"),
		[]byte(""),
		[]byte(" "),
		[]byte("SET"),   // truncated: verb only
		[]byte("SET 1"), // truncated: missing value
		[]byte("SE"),    // truncated verb
		[]byte("SET 99999999999999999999999999999999 1"), // oversized key
		[]byte("SET 18446744073709551616 1"),             // uint64 overflow by one
		[]byte("GET " + strings.Repeat("9", MaxLineLen)), // oversized line
		[]byte("SET \x00\x01\x02 \xff\xfe"),              // binary payload
		[]byte("\xde\xad\xbe\xef"),                       // pure binary
		[]byte("S\xffT 1 2"),
		[]byte("set 3 4"),
		[]byte("  SCAN  "),
		[]byte("QUIT extra"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		cmd, err := ParseCommand(line)
		if err != nil {
			return
		}
		// A parsed command must round-trip through its canonical rendering.
		var canon string
		switch cmd.Kind {
		case CmdGet:
			canon = renderKeyed("GET", cmd.Key)
		case CmdDel:
			canon = renderKeyed("DEL", cmd.Key)
		case CmdSet:
			canon = renderSet(cmd.Key, cmd.Val)
		case CmdScan:
			if cmd.Limit == 0 {
				canon = "SCAN"
			} else {
				canon = renderKeyed("SCAN", uint64(cmd.Limit))
			}
		case CmdInfo:
			canon = "INFO"
		case CmdStats:
			canon = "STATS"
		case CmdPing:
			canon = "PING"
		case CmdQuit:
			canon = "QUIT"
		default:
			t.Fatalf("ParseCommand(%q) returned unknown kind %d", line, cmd.Kind)
		}
		again, err := ParseCommand([]byte(canon))
		if err != nil {
			t.Fatalf("canonical form %q of %q failed to parse: %v", canon, line, err)
		}
		if again != cmd {
			t.Fatalf("round trip of %q: %+v != %+v", line, again, cmd)
		}
		// Accepted lines must be printable (the parser's own contract).
		if i := bytes.IndexFunc(line, func(r rune) bool { return r < 0x20 && r != '\r' }); i >= 0 {
			t.Fatalf("ParseCommand accepted control byte at %d in %q", i, line)
		}
	})
}

func renderKeyed(verb string, key uint64) string {
	return verb + " " + u64str(key)
}

func renderSet(key, val uint64) string {
	return "SET " + u64str(key) + " " + u64str(val)
}

func u64str(v uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(buf[i:])
}

// FuzzValidateBackup feeds RESTORE's pass 1 arbitrary bytes: it must
// never panic, and whatever it accepts must really be a whole backup —
// re-read here frame by frame — with a header first, a footer last,
// every shard id and per-frame count inside the bounds pass 2 relies on,
// and totals that match the footer.
func FuzzValidateBackup(f *testing.F) {
	good, err := os.ReadFile("testdata/backup_roundtrip_8f361da.crdbkp")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add([]byte(backupMagic))
	var huge bytes.Buffer // a base frame whose count wraps the length check
	hw := bufio.NewWriter(&huge)
	hw.WriteString(backupMagic)
	repl.WriteFrame(hw, frameHeader, []uint64{backupVersion, 1, 1})
	repl.WriteFrame(hw, frameBase, []uint64{0, 1 << 63})
	repl.WriteFrame(hw, frameShardEnd, []uint64{0, 1 << 63})
	repl.WriteFrame(hw, frameFooter, []uint64{1 << 63, 0, 1})
	hw.Flush()
	f.Add(huge.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := validateBackup(bytes.NewReader(data))
		if err != nil {
			return
		}
		r := bufio.NewReader(bytes.NewReader(data[len(backupMagic):]))
		var baseKeys, deltaOps uint64
		last := uint32(0)
		for first := true; ; first = false {
			typ, w, err := repl.ReadFrame(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("accepted a file with an unreadable frame: %v", err)
			}
			if first != (typ == frameHeader) {
				t.Fatalf("accepted a file whose header is not exactly its first frame (type %d, first %v)", typ, first)
			}
			switch typ {
			case frameBase, frameDelta:
				if w[0] >= uint64(sum.shards) || w[1] > backupChunkPairs {
					t.Fatalf("accepted a type-%d frame {shard %d, count %d} of a %d-shard backup", typ, w[0], w[1], sum.shards)
				}
				if typ == frameBase {
					baseKeys += w[1]
				} else {
					deltaOps += w[1]
				}
			case frameShardEnd:
				if w[0] >= uint64(sum.shards) {
					t.Fatalf("accepted a shard-end for shard %d of %d", w[0], sum.shards)
				}
			case frameFooter:
				if w[0] != baseKeys || w[1] != deltaOps || w[2] != uint64(sum.shards) {
					t.Fatalf("accepted a footer %v over %d keys, %d deltas, %d shards", w, baseKeys, deltaOps, sum.shards)
				}
			}
			last = typ
		}
		if last != frameFooter || sum.baseKeys != baseKeys || sum.deltaOps != deltaOps {
			t.Fatalf("accepted a file ending in frame type %d with summary %+v (frames hold %d keys, %d deltas)", last, *sum, baseKeys, deltaOps)
		}
	})
}
