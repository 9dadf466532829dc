// Package server implements corundum-server: a concurrent, RESP-like
// line-protocol key-value service backed by a persistent memory pool.
//
// Each client connection is served by its own goroutine. Reads (GET,
// SCAN) run directly against the store under a reader lock; writes (SET,
// DEL) are funneled into a group-commit batcher that coalesces requests
// from many connections into one failure-atomic pool transaction,
// amortizing the undo-log flush+fence cost across clients. A SET or DEL
// is acknowledged only after the transaction that contains it has
// durably committed, so an acknowledged write survives any crash.
//
// The wire protocol is RESP-like and line-oriented. Requests are inline
// commands — space-separated tokens terminated by '\n' (an optional
// preceding '\r' is stripped):
//
//	SET <key> <val>    -> +OK
//	GET <key>          -> :<val>   or $-1 when absent
//	DEL <key>          -> :1 / :0  (whether the key existed)
//	SCAN [limit]       -> *<n> followed by n lines "<key> <val>"
//	INFO               -> $<len> bulk string of "name: value" lines
//	STATS              -> $<len> bulk string of "name: value" lines
//	SCRUB              -> $<len> bulk string: online media-scrub report
//	SLOWLOG [n]        -> $<len> bulk string: the n slowest recent ops
//	                      with their phase breakdown (default 16)
//	RESHARD <n>        -> +OK once the live migration to n shards is
//	                      durably underway (it completes in the background;
//	                      watch INFO's migration_* keys)
//	BACKUP <path>      -> $<len> bulk string report: streams a consistent
//	                      snapshot of the whole keyspace to a server-side
//	                      file while serving reads and writes
//	RESTORE <path>     -> $<len> bulk string report: validates the backup
//	                      end-to-end, then replaces the keyspace with it
//	REPLICAOF <addr>   -> +OK: become a read-only replica streaming from
//	                      the primary's replication listener at addr
//	                      ("REPLICAOF NO ONE" is PROMOTE)
//	PROMOTE            -> +OK: failover — leave the replica role, bump the
//	                      durable replication epoch, accept writes
//	REPLINFO           -> $<len> bulk string: replication role, cursor,
//	                      link state, and lag
//	PING               -> +PONG
//	QUIT               -> +OK, then the server closes the connection
//
// Keys and values are decimal uint64s, matching the pool's KVStore.
// Errors are reported as "-ERR <message>" and never close the connection
// except for non-textual (binary) request lines, where the stream can no
// longer be trusted to be in sync. An oversized line is refused with
// "-ERR request line exceeds ..." and the stream resynchronizes at its
// terminating newline: the pipelined requests behind it still run, in
// order. Two refinements of -ERR carry
// machine-actionable meaning: "-BUSY" (journal slots exhausted, or an
// admin stream command holding writes off; the request never ran and can
// be re-sent, see client.Retry), "-READONLY" (the pool is serving degraded
// after unrepairable media damage, or this server is a replica — then
// the reply's first token is the primary's address, see
// client.ReadonlyPrimary; until the replication handshake has carried
// that address the replica answers -BUSY instead), and "-MOVED <shard>"
// (the key's range is mid-migration; retry after a short backoff and the
// new owner answers).
// All three are retryable through internal/client's Retry helper.
package server

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the parsed commands.
type Kind int

// Commands understood by the server.
const (
	CmdGet Kind = iota
	CmdSet
	CmdDel
	CmdScan
	CmdInfo
	CmdStats
	CmdPing
	CmdQuit
	CmdScrub
	CmdSlowlog
	CmdReshard
	CmdBackup
	CmdRestore
	CmdReplicaOf
	CmdPromote
	CmdReplInfo
)

// MaxLineLen bounds a request line (verb + arguments + terminator). A
// maximal well-formed command ("SET <20 digits> <20 digits>") is under 50
// bytes; the rest is slack for clients that pad.
const MaxLineLen = 512

// Parse errors. ErrBinaryLine poisons the stream (the connection is
// closed after reporting it); ErrLineTooLong refuses the one oversized
// request and the connection resyncs at the next newline; the others
// are per-command.
var (
	ErrEmptyCommand = errors.New("empty command")
	ErrLineTooLong  = fmt.Errorf("request line exceeds %d bytes", MaxLineLen)
	ErrBinaryLine   = errors.New("request line contains control bytes")
)

// Command is one parsed request.
type Command struct {
	Kind     Kind
	Key, Val uint64
	Limit    int    // SCAN: max pairs to return; 0 means no limit
	Path     string // BACKUP/RESTORE: the server-side file
}

// ParseCommand parses one request line (without its '\n'; a trailing '\r'
// is accepted and stripped). It never panics, whatever the input: every
// malformed line yields an error. A well-formed GET, SET or DEL allocates
// nothing: the tokens are sub-slices of line held in a stack array, the
// verb is matched as an upper-cased stack copy, and numbers are parsed by
// hand (strconv runs only to word the error for a bad one).
func ParseCommand(line []byte) (Command, error) {
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
	// Split on runs of spaces, keeping the first len(f) tokens and
	// counting them all: no command takes more than three.
	var f [4][]byte
	n := 0
	for i := 0; i < len(line); {
		if line[i] == ' ' {
			i++
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' {
			j++
		}
		if n < len(f) {
			f[n] = line[i:j]
		}
		n++
		i = j
	}
	if n == 0 {
		return Command{}, ErrEmptyCommand
	}
	var vb [len("REPLICAOF")]byte
	verb := appendUpper(vb[:0], f[0])
	switch string(verb) {
	case "GET", "DEL":
		if n != 2 {
			return Command{}, fmt.Errorf("%s expects 1 argument, got %d", string(verb), n-1)
		}
		key, err := parseU64(f[1])
		if err != nil {
			return Command{}, fmt.Errorf("bad key: %v", err)
		}
		k := CmdGet
		if verb[0] == 'D' {
			k = CmdDel
		}
		return Command{Kind: k, Key: key}, nil
	case "SET":
		if n != 3 {
			return Command{}, fmt.Errorf("SET expects 2 arguments, got %d", n-1)
		}
		key, err := parseU64(f[1])
		if err != nil {
			return Command{}, fmt.Errorf("bad key: %v", err)
		}
		val, err := parseU64(f[2])
		if err != nil {
			return Command{}, fmt.Errorf("bad value: %v", err)
		}
		return Command{Kind: CmdSet, Key: key, Val: val}, nil
	case "SCAN":
		if n > 2 {
			return Command{}, fmt.Errorf("SCAN expects at most 1 argument, got %d", n-1)
		}
		cmd := Command{Kind: CmdScan}
		if n == 2 {
			limit, err := parseU64(f[1])
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
		if n > 2 {
			return Command{}, fmt.Errorf("SLOWLOG expects at most 1 argument, got %d", n-1)
		}
		cmd := Command{Kind: CmdSlowlog, Limit: 16}
		if n == 2 {
			c, err := parseU64(f[1])
			if err != nil {
				return Command{}, fmt.Errorf("bad count: %v", err)
			}
			if c > 4096 {
				return Command{}, fmt.Errorf("count %d too large", c)
			}
			cmd.Limit = int(c)
		}
		return cmd, nil
	case "RESHARD":
		if n != 2 {
			return Command{}, fmt.Errorf("RESHARD expects 1 argument (shard count), got %d", n-1)
		}
		c, err := parseU64(f[1])
		if err != nil {
			return Command{}, fmt.Errorf("bad shard count: %v", err)
		}
		if c < 1 || c > 1024 {
			return Command{}, fmt.Errorf("shard count %d out of range [1, 1024]", c)
		}
		return Command{Kind: CmdReshard, Key: c}, nil
	case "BACKUP", "RESTORE":
		if n != 2 {
			return Command{}, fmt.Errorf("%s expects 1 argument (file path), got %d", string(verb), n-1)
		}
		k := CmdBackup
		if verb[0] == 'R' {
			k = CmdRestore
		}
		return Command{Kind: k, Path: string(f[1])}, nil
	case "REPLICAOF":
		// REPLICAOF <host:port> | REPLICAOF NO ONE. The address rides the
		// Path field; "NO ONE" parses to an empty Path, which ReplicaOf
		// treats as PROMOTE.
		if n == 3 && upperIs(f[1], "NO") && upperIs(f[2], "ONE") {
			return Command{Kind: CmdReplicaOf}, nil
		}
		if n != 2 {
			return Command{}, fmt.Errorf("REPLICAOF expects <host:port> or NO ONE")
		}
		return Command{Kind: CmdReplicaOf, Path: string(f[1])}, nil
	case "INFO", "STATS", "SCRUB", "PING", "QUIT", "PROMOTE", "REPLINFO":
		if n != 1 {
			return Command{}, fmt.Errorf("%s takes no arguments", string(verb))
		}
		switch string(verb) {
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
		return Command{}, fmt.Errorf("unknown command %q", clip(string(verb), 32))
	}
}

// appendUpper appends tok to dst with ASCII letters upper-cased; other
// bytes, non-ASCII included, pass through and fail the verb switch.
func appendUpper(dst, tok []byte) []byte {
	for _, b := range tok {
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		dst = append(dst, b)
	}
	return dst
}

// upperIs reports whether tok, ASCII-upper-cased, equals want.
func upperIs(tok []byte, want string) bool {
	if len(tok) != len(want) {
		return false
	}
	for i, b := range tok {
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		if b != want[i] {
			return false
		}
	}
	return true
}

// parseU64 parses a decimal uint64. It accepts exactly what
// strconv.ParseUint(s, 10, 64) accepts, and returns its error.
func parseU64(tok []byte) (uint64, error) {
	if len(tok) > 20 { // max uint64 is 20 digits
		return 0, fmt.Errorf("number %q too long", clip(string(tok), 32))
	}
	if len(tok) == 0 {
		return 0, numErr(tok)
	}
	var v uint64
	for _, c := range tok {
		d := uint64(c - '0')
		if d > 9 || v > (math.MaxUint64-d)/10 {
			return 0, numErr(tok)
		}
		v = v*10 + d
	}
	return v, nil
}

// numErr is strconv's own error for a token parseU64 refused.
func numErr(tok []byte) error {
	_, err := strconv.ParseUint(string(tok), 10, 64)
	return err
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}
