package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"corundum/internal/repl"
)

// FuzzParseCommand checks that the protocol parser never panics and obeys
// its contract on arbitrary byte strings: it either returns an error or a
// well-formed Command whose re-rendering parses back to the same value.
// It is also differential: the allocation-free parser must return exactly
// the Command and the error text of referenceParseCommand, the plain
// strings-and-strconv parser it replaced.
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
		[]byte("replicaof no one"),
		[]byte("REPLICAOF 127.0.0.1:6390"),
		[]byte("RESHARD 0"),
		[]byte("SLOWLOG 4097"),
		[]byte("BACKUP /tmp/x y"),
		[]byte("GET +1"),
		[]byte("GET 007"),
		[]byte("SET 18446744073709551615 18446744073709551615"),
		[]byte("UNKNOWNVERBLONGERTHANANYCOMMAND 1"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		cmd, err := ParseCommand(line)
		ref, refErr := referenceParseCommand(line)
		if cmd != ref || (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("ParseCommand(%q) = %+v, %v; the reference parser says %+v, %v", line, cmd, err, ref, refErr)
		}
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
		case CmdScrub, CmdSlowlog, CmdReshard, CmdBackup, CmdRestore, CmdReplicaOf, CmdPromote, CmdReplInfo:
			return // admin commands: the differential check above covers them
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

// referenceParseCommand is the line parser as it stood before parsing
// went allocation-free: strings.Fields-style splitting into a fresh
// slice, an allocated upper-case verb, and strconv for every number.
// FuzzParseCommand holds ParseCommand to its results and error texts.
func referenceParseCommand(line []byte) (Command, error) {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	if len(line) > MaxLineLen {
		return Command{}, ErrLineTooLong
	}
	for _, b := range line {
		// Reject control bytes (including NUL) so binary garbage is refused
		// as a whole rather than partially interpreted. Space is the only
		// separator; everything else must be printable ASCII or high bytes
		// (which then fail token parsing with a cleaner error).
		if b < 0x20 {
			return Command{}, ErrBinaryLine
		}
	}
	fields := refSplitFields(line)
	if len(fields) == 0 {
		return Command{}, ErrEmptyCommand
	}
	verb := refASCIIUpper(fields[0])
	switch verb {
	case "GET", "DEL":
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("%s expects 1 argument, got %d", verb, len(fields)-1)
		}
		key, err := refParseU64(fields[1])
		if err != nil {
			return Command{}, fmt.Errorf("bad key: %v", err)
		}
		k := CmdGet
		if verb == "DEL" {
			k = CmdDel
		}
		return Command{Kind: k, Key: key}, nil
	case "SET":
		if len(fields) != 3 {
			return Command{}, fmt.Errorf("SET expects 2 arguments, got %d", len(fields)-1)
		}
		key, err := refParseU64(fields[1])
		if err != nil {
			return Command{}, fmt.Errorf("bad key: %v", err)
		}
		val, err := refParseU64(fields[2])
		if err != nil {
			return Command{}, fmt.Errorf("bad value: %v", err)
		}
		return Command{Kind: CmdSet, Key: key, Val: val}, nil
	case "SCAN":
		if len(fields) > 2 {
			return Command{}, fmt.Errorf("SCAN expects at most 1 argument, got %d", len(fields)-1)
		}
		cmd := Command{Kind: CmdScan}
		if len(fields) == 2 {
			limit, err := refParseU64(fields[1])
			if err != nil {
				return Command{}, fmt.Errorf("bad limit: %v", err)
			}
			if limit > 1<<30 {
				return Command{}, fmt.Errorf("limit %d too large", limit)
			}
			cmd.Limit = int(limit)
		}
		return cmd, nil
	case "SLOWLOG":
		if len(fields) > 2 {
			return Command{}, fmt.Errorf("SLOWLOG expects at most 1 argument, got %d", len(fields)-1)
		}
		cmd := Command{Kind: CmdSlowlog, Limit: 16}
		if len(fields) == 2 {
			n, err := refParseU64(fields[1])
			if err != nil {
				return Command{}, fmt.Errorf("bad count: %v", err)
			}
			if n > 4096 {
				return Command{}, fmt.Errorf("count %d too large", n)
			}
			cmd.Limit = int(n)
		}
		return cmd, nil
	case "RESHARD":
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("RESHARD expects 1 argument (shard count), got %d", len(fields)-1)
		}
		n, err := refParseU64(fields[1])
		if err != nil {
			return Command{}, fmt.Errorf("bad shard count: %v", err)
		}
		if n < 1 || n > 1024 {
			return Command{}, fmt.Errorf("shard count %d out of range [1, 1024]", n)
		}
		return Command{Kind: CmdReshard, Key: n}, nil
	case "BACKUP", "RESTORE":
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("%s expects 1 argument (file path), got %d", verb, len(fields)-1)
		}
		k := CmdBackup
		if verb == "RESTORE" {
			k = CmdRestore
		}
		return Command{Kind: k, Path: string(fields[1])}, nil
	case "REPLICAOF":
		// REPLICAOF <host:port> | REPLICAOF NO ONE. The address rides the
		// Path field; "NO ONE" parses to an empty Path, which ReplicaOf
		// treats as PROMOTE.
		if len(fields) == 3 && refASCIIUpper(fields[1]) == "NO" && refASCIIUpper(fields[2]) == "ONE" {
			return Command{Kind: CmdReplicaOf}, nil
		}
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("REPLICAOF expects <host:port> or NO ONE")
		}
		return Command{Kind: CmdReplicaOf, Path: string(fields[1])}, nil
	case "INFO", "STATS", "SCRUB", "PING", "QUIT", "PROMOTE", "REPLINFO":
		if len(fields) != 1 {
			return Command{}, fmt.Errorf("%s takes no arguments", verb)
		}
		switch verb {
		case "INFO":
			return Command{Kind: CmdInfo}, nil
		case "STATS":
			return Command{Kind: CmdStats}, nil
		case "SCRUB":
			return Command{Kind: CmdScrub}, nil
		case "PING":
			return Command{Kind: CmdPing}, nil
		case "PROMOTE":
			return Command{Kind: CmdPromote}, nil
		case "REPLINFO":
			return Command{Kind: CmdReplInfo}, nil
		default:
			return Command{Kind: CmdQuit}, nil
		}
	default:
		return Command{}, fmt.Errorf("unknown command %q", clip(verb, 32))
	}
}

// refSplitFields splits on runs of spaces, like strings.Fields restricted to
// the one separator the protocol allows.
func refSplitFields(line []byte) [][]byte {
	var out [][]byte
	start := -1
	for i, b := range line {
		if b == ' ' {
			if start >= 0 {
				out = append(out, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, line[start:])
	}
	return out
}

// refASCIIUpper uppercases a short token without allocation surprises from
// non-ASCII bytes (they pass through and fail the verb switch).
func refASCIIUpper(tok []byte) string {
	buf := make([]byte, len(tok))
	for i, b := range tok {
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		buf[i] = b
	}
	return string(buf)
}

func refParseU64(tok []byte) (uint64, error) {
	if len(tok) > 20 { // max uint64 is 20 digits
		return 0, fmt.Errorf("number %q too long", clip(string(tok), 32))
	}
	return strconv.ParseUint(string(tok), 10, 64)
}
