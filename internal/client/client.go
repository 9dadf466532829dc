// Package client is the one line-protocol client for corundum-server:
// a reply reader that bounds everything the peer controls, a Conn that
// is exactly one TCP connection, a Session that survives connection
// drops and follows a replica's redirect to its primary, and the
// jittered-backoff Retry loop for the server's transient refusals
// (retry.go). It depends on the standard library only, so anything —
// campaigns, tests, tools — can speak the protocol without importing
// the server.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// Bounds on what a reply may make the client allocate. Replies are input
// from outside the program: a header announcing more than these is
// refused before a byte of its body is read.
const (
	// MaxBulkLen bounds a $<len> payload. The server's largest bulk
	// replies (INFO, STATS, SLOWLOG) are a few KiB.
	MaxBulkLen = 16 << 20
	// MaxArrayLen bounds a *<n> element count; the server itself refuses a
	// SCAN limit above 1<<30 and a pool holds far fewer keys than this.
	MaxArrayLen = 1 << 24
	// maxLineLen bounds one reply line (the reader's buffer size): array
	// elements are two decimal uint64s and refusals a sentence.
	maxLineLen = 64 << 10
)

// ErrProtocol wraps every malformed or over-limit reply. The stream can
// no longer be trusted to be in sync, so the connection that produced
// it is closed.
var ErrProtocol = errors.New("client: protocol error")

func protoErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// Refusal is a "-…" reply line (-ERR, -BUSY, -READONLY, -MOVED) carried
// as an error by the typed calls. The request did not take effect.
type Refusal string

func (r Refusal) Error() string { return string(r) }

// Reply is one parsed server reply.
type Reply struct {
	// Head is the first line without its terminator: "+OK", ":7", "$-1",
	// "$12", "*2", "-ERR …".
	Head string
	// Bulk is the payload of a "$<len>" reply.
	Bulk string
	// Items are the element lines of a "*<n>" reply.
	Items []string
}

// String renders the reply as the head line followed by its body lines,
// '\n'-joined, with a bulk payload's trailing newline trimmed.
func (r Reply) String() string {
	switch {
	case len(r.Items) > 0:
		return r.Head + "\n" + strings.Join(r.Items, "\n")
	case r.IsBulk():
		return r.Head + "\n" + strings.TrimRight(r.Bulk, "\r\n")
	}
	return r.Head
}

// IsBulk reports a non-nil "$<len>" reply.
func (r Reply) IsBulk() bool { return strings.HasPrefix(r.Head, "$") && r.Head != "$-1" }

// Refused returns the reply as a Refusal when it is a "-…" line.
func (r Reply) Refused() error {
	if strings.HasPrefix(r.Head, "-") {
		return Refusal(r.Head)
	}
	return nil
}

// Fields parses a bulk payload of "name: value" lines (INFO, STATS,
// REPLINFO, the BACKUP/RESTORE reports). Lines without ": " are skipped.
func (r Reply) Fields() map[string]string {
	m := make(map[string]string)
	for _, line := range strings.Split(r.Bulk, "\n") {
		if k, v, ok := strings.Cut(strings.TrimRight(line, "\r"), ": "); ok {
			m[k] = v
		}
	}
	return m
}

// KV is one SCAN pair.
type KV struct{ Key, Val uint64 }

// Pairs parses the elements of a SCAN reply.
func (r Reply) Pairs() ([]KV, error) {
	out := make([]KV, len(r.Items))
	for i, item := range r.Items {
		ks, vs, ok := strings.Cut(item, " ")
		k, errK := strconv.ParseUint(ks, 10, 64)
		v, errV := strconv.ParseUint(vs, 10, 64)
		if !ok || errK != nil || errV != nil {
			return nil, protoErr("bad SCAN pair %q", item)
		}
		out[i] = KV{k, v}
	}
	return out, nil
}

// NewReader sizes a reader for ReadReply: its buffer is the line bound.
func NewReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, maxLineLen) }

// readLine returns the next line without its "\n" or "\r\n".
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return "", protoErr("reply line exceeds %d bytes", r.Size())
	}
	if err != nil {
		return "", err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return string(line), nil
}

// header parses the decimal count after a '$' or '*' sigil; -1 (nil) is
// the only negative accepted.
func header(head string, max int) (int, error) {
	n, err := strconv.Atoi(head[1:])
	if err != nil || n < -1 || n > max {
		return 0, protoErr("bad or oversized header %q (limit %d)", clip(head), max)
	}
	return n, nil
}

func clip(s string) string {
	if len(s) > 48 {
		return s[:48] + "..."
	}
	return s
}

// ReadReply reads one reply of any shape the server emits: a simple line
// (+…, -…, :<int>), a bulk string ($<len> + payload, or $-1), or an array
// (*<n> + n lines). Lines may end in "\r\n" or a bare "\n". A transport
// error is returned as is; anything malformed wraps ErrProtocol.
func ReadReply(r *bufio.Reader) (Reply, error) {
	head, err := readLine(r)
	if err != nil {
		return Reply{}, err
	}
	if head == "" {
		return Reply{}, protoErr("empty reply line")
	}
	rep := Reply{Head: head}
	switch head[0] {
	case '+', '-', ':':
	case '$':
		n, err := header(head, MaxBulkLen)
		if err != nil {
			return Reply{}, err
		}
		if n < 0 {
			return rep, nil // "$-1": absent
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return Reply{}, err
		}
		if end, err := readLine(r); err != nil {
			return Reply{}, err
		} else if end != "" {
			return Reply{}, protoErr("bulk payload of %d bytes not followed by a line end", n)
		}
		rep.Bulk = string(body)
	case '*':
		n, err := header(head, MaxArrayLen)
		if err != nil {
			return Reply{}, err
		}
		// Grown by what actually arrives: the header alone buys no memory.
		for i := 0; i < n; i++ {
			item, err := readLine(r)
			if err != nil {
				return Reply{}, err
			}
			rep.Items = append(rep.Items, item)
		}
	default:
		return Reply{}, protoErr("unknown reply type in %q", clip(head))
	}
	return rep, nil
}

// Conn is one TCP connection to a server. It never reconnects: after an
// error it is closed. One goroutine may Send while another Recvs;
// otherwise it is not safe for concurrent use.
type Conn struct {
	c       net.Conn
	r       *bufio.Reader
	timeout time.Duration
}

// Dial connects to addr. timeout bounds the dial and, afterwards, each
// Do round trip; zero means no bound.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Conn{c: c, r: NewReader(c), timeout: timeout}, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// arm pushes the I/O deadline out by the connection's timeout. The error
// (only a closed connection yields one) resurfaces from the I/O itself.
func (c *Conn) arm() {
	if c.timeout > 0 {
		_ = c.c.SetDeadline(time.Now().Add(c.timeout))
	}
}

// Do sends one command line (no terminator) and reads its reply.
func (c *Conn) Do(cmd string) (Reply, error) {
	if err := c.Send(cmd); err != nil {
		return Reply{}, err
	}
	return c.Recv()
}

// Send writes lines plus a final '\n' without waiting for a reply; each
// embedded '\n' ends one more request, and every request sent must be
// matched by one Recv. Do is Send then Recv.
func (c *Conn) Send(lines string) error {
	c.arm()
	_, err := io.WriteString(c.c, lines+"\n")
	if err != nil {
		c.c.Close()
	}
	return err
}

// Recv reads the next reply.
func (c *Conn) Recv() (Reply, error) {
	c.arm()
	rep, err := ReadReply(c.r)
	if err != nil {
		c.c.Close()
	}
	return rep, err
}

// Session is a logical client of one keyspace: it dials on first use,
// redials after a transport error, and re-aims itself at the primary when
// a replica answers "-READONLY <addr>". It never re-sends a command on its
// own — a refused command did not run, a dropped one may have — so callers
// loop (see Retry) and decide. Not safe for concurrent use.
type Session struct {
	addr    string
	timeout time.Duration
	conn    *Conn
}

// NewSession returns a session aimed at addr; nothing is dialed yet.
// timeout is passed to Dial for every (re)connection.
func NewSession(addr string, timeout time.Duration) *Session {
	return &Session{addr: addr, timeout: timeout}
}

// Addr is the address the next command goes to.
func (s *Session) Addr() string { return s.addr }

// Close drops the current connection, if any; the session stays usable.
func (s *Session) Close() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// Do sends one command. A transport or protocol error drops the
// connection (the next Do redials); a "-READONLY <addr>" reply is
// returned to the caller after the session has re-aimed at addr.
func (s *Session) Do(cmd string) (Reply, error) {
	if s.conn == nil {
		c, err := Dial(s.addr, s.timeout)
		if err != nil {
			return Reply{}, err
		}
		s.conn = c
	}
	rep, err := s.conn.Do(cmd)
	if err != nil {
		s.conn = nil // Conn.Do closed it
		return rep, err
	}
	if p := ReadonlyPrimary(rep.Head); p != "" && p != s.addr {
		s.Close()
		s.addr = p
	}
	return rep, nil
}

// Set stores key=val; nil means the server acknowledged it (durably
// committed), a Refusal that it did not run.
func (s *Session) Set(key, val uint64) error {
	rep, err := s.Do("SET " + strconv.FormatUint(key, 10) + " " + strconv.FormatUint(val, 10))
	if err != nil {
		return err
	}
	if rep.Head != "+OK" {
		return s.unexpected("SET", rep)
	}
	return nil
}

// Get reads key; found is false for "$-1".
func (s *Session) Get(key uint64) (val uint64, found bool, err error) {
	rep, err := s.Do("GET " + strconv.FormatUint(key, 10))
	if err != nil {
		return 0, false, err
	}
	if rep.Head == "$-1" {
		return 0, false, nil
	}
	val, err = s.integer("GET", rep)
	return val, err == nil, err
}

// Del deletes key and reports whether it existed.
func (s *Session) Del(key uint64) (existed bool, err error) {
	rep, err := s.Do("DEL " + strconv.FormatUint(key, 10))
	if err != nil {
		return false, err
	}
	n, err := s.integer("DEL", rep)
	return n == 1, err
}

// Scan returns up to limit pairs; limit 0 means the whole keyspace.
func (s *Session) Scan(limit int) ([]KV, error) {
	rep, err := s.Do("SCAN " + strconv.Itoa(limit))
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(rep.Head, "*") {
		return nil, s.unexpected("SCAN", rep)
	}
	pairs, err := rep.Pairs()
	if err != nil {
		s.Close()
	}
	return pairs, err
}

// Info returns INFO's "name: value" lines as a map.
func (s *Session) Info() (map[string]string, error) { return s.fields("INFO") }

// Stats returns STATS's "name: value" lines as a map.
func (s *Session) Stats() (map[string]string, error) { return s.fields("STATS") }

func (s *Session) fields(cmd string) (map[string]string, error) {
	rep, err := s.Do(cmd)
	if err != nil {
		return nil, err
	}
	if !rep.IsBulk() {
		return nil, s.unexpected(cmd, rep)
	}
	return rep.Fields(), nil
}

// integer parses a ":<n>" reply.
func (s *Session) integer(cmd string, rep Reply) (uint64, error) {
	if strings.HasPrefix(rep.Head, ":") {
		if n, err := strconv.ParseUint(rep.Head[1:], 10, 64); err == nil {
			return n, nil
		}
	}
	return 0, s.unexpected(cmd, rep)
}

// unexpected classifies a reply the typed call cannot use: a refusal is
// returned as such; anything else means the stream is out of step with
// the session, so the connection is dropped.
func (s *Session) unexpected(cmd string, rep Reply) error {
	if err := rep.Refused(); err != nil {
		return err
	}
	s.Close()
	return protoErr("bad %s reply %q", cmd, clip(rep.Head))
}
