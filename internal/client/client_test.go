package client_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"corundum/internal/client"
	"corundum/internal/pool"
	"corundum/internal/server"
)

// TestReadReplyShapes parses every reply shape the server emits, with
// both line endings.
func TestReadReplyShapes(t *testing.T) {
	info := "server: corundum-server\nshards: 2\n"
	cases := []struct {
		name string
		wire string // with \r\n endings; the test also runs it with bare \n
		want client.Reply
		str  string
	}{
		{"ok", "+OK\r\n", client.Reply{Head: "+OK"}, "+OK"},
		{"pong", "+PONG\r\n", client.Reply{Head: "+PONG"}, "+PONG"},
		{"int", ":18446744073709551615\r\n", client.Reply{Head: ":18446744073709551615"}, ":18446744073709551615"},
		{"nil", "$-1\r\n", client.Reply{Head: "$-1"}, "$-1"},
		{"empty array", "*0\r\n", client.Reply{Head: "*0"}, "*0"},
		{"scan", "*2\r\n1 10\r\n2 20\r\n", client.Reply{Head: "*2", Items: []string{"1 10", "2 20"}}, "*2\n1 10\n2 20"},
		{"bulk", fmt.Sprintf("$%d\r\n%s\r\n", len(info), info), client.Reply{Head: "$" + strconv.Itoa(len(info)), Bulk: info},
			"$" + strconv.Itoa(len(info)) + "\nserver: corundum-server\nshards: 2"},
		{"empty bulk", "$0\r\n\r\n", client.Reply{Head: "$0"}, "$0\n"},
		{"err", "-ERR unknown command \"BOGUS\"\r\n", client.Reply{Head: "-ERR unknown command \"BOGUS\""}, "-ERR unknown command \"BOGUS\""},
		{"busy", "-BUSY all journal slots busy\r\n", client.Reply{Head: "-BUSY all journal slots busy"}, "-BUSY all journal slots busy"},
		{"readonly", "-READONLY 127.0.0.1:7 replica; send mutations to the primary\r\n",
			client.Reply{Head: "-READONLY 127.0.0.1:7 replica; send mutations to the primary"},
			"-READONLY 127.0.0.1:7 replica; send mutations to the primary"},
		{"moved", "-MOVED 2 key moved\r\n", client.Reply{Head: "-MOVED 2 key moved"}, "-MOVED 2 key moved"},
	}
	for _, c := range cases {
		for _, wire := range []string{c.wire, strings.ReplaceAll(c.wire, "\r\n", "\n")} {
			// A second reply behind the first proves exactly one was consumed.
			r := client.NewReader(strings.NewReader(wire + "+NEXT\n"))
			got, err := client.ReadReply(r)
			if err != nil {
				t.Fatalf("%s (%q): %v", c.name, wire, err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s (%q) = %+v, want %+v", c.name, wire, got, c.want)
			}
			if got.String() != c.str {
				t.Errorf("%s String() = %q, want %q", c.name, got.String(), c.str)
			}
			if next, err := client.ReadReply(r); err != nil || next.Head != "+NEXT" {
				t.Errorf("%s (%q): stream out of sync after the reply: %+v, %v", c.name, wire, next, err)
			}
		}
	}
}

func TestReplyAccessors(t *testing.T) {
	bulk := client.Reply{Head: "$24", Bulk: "shards: 2\nrepl_role: none\nno colon here\n"}
	if got := bulk.Fields(); !reflect.DeepEqual(got, map[string]string{"shards": "2", "repl_role": "none"}) {
		t.Errorf("Fields() = %v", got)
	}
	scan := client.Reply{Head: "*2", Items: []string{"1 10", "18446744073709551615 0"}}
	if got, err := scan.Pairs(); err != nil || !reflect.DeepEqual(got, []client.KV{{1, 10}, {1<<64 - 1, 0}}) {
		t.Errorf("Pairs() = %v, %v", got, err)
	}
	for _, bad := range []string{"1", "1 x", "1 2 3", "-1 2", ""} {
		if _, err := (client.Reply{Head: "*1", Items: []string{bad}}).Pairs(); !errors.Is(err, client.ErrProtocol) {
			t.Errorf("Pairs(%q) err = %v, want ErrProtocol", bad, err)
		}
	}
	var refused client.Refusal
	if err := (client.Reply{Head: "-BUSY x"}).Refused(); !errors.As(err, &refused) || string(refused) != "-BUSY x" {
		t.Errorf("Refused() = %v", err)
	}
	if err := (client.Reply{Head: "+OK"}).Refused(); err != nil {
		t.Errorf("Refused() on +OK = %v", err)
	}
}

// TestReadReplyRefusesHostileHeaders: a reply is input from outside the
// program, so a header may not buy memory or desynchronize the stream.
func TestReadReplyRefusesHostileHeaders(t *testing.T) {
	for _, wire := range []string{
		"$-2\r\n",
		"*-2\r\n",
		fmt.Sprintf("$%d\r\n", client.MaxBulkLen+1),
		fmt.Sprintf("*%d\r\n", client.MaxArrayLen+1),
		"$9223372036854775807\r\n",
		"*99999999999999999999999\r\n",
		"$abc\r\n",
		"*\r\n",
		"$3\r\nabcdef\r\n",                         // payload longer than announced
		"\r\n",                                     // empty line
		"?what\r\n",                                // unknown type
		"+" + strings.Repeat("x", 70<<10) + "\r\n", // line beyond the bound
	} {
		_, err := client.ReadReply(client.NewReader(strings.NewReader(wire)))
		if !errors.Is(err, client.ErrProtocol) {
			t.Errorf("ReadReply(%.20q...) err = %v, want ErrProtocol", wire, err)
		}
	}
	// A truncated stream is a transport condition, not a protocol one.
	for _, wire := range []string{"", "+OK", "$5\r\nab", "*2\r\n1 1\r\n"} {
		_, err := client.ReadReply(client.NewReader(strings.NewReader(wire)))
		if err == nil || errors.Is(err, client.ErrProtocol) {
			t.Errorf("ReadReply(%q) err = %v, want a transport error", wire, err)
		}
	}
	// An array header alone allocates nothing: a maximal claim followed
	// by EOF fails fast.
	_, err := client.ReadReply(client.NewReader(strings.NewReader(fmt.Sprintf("*%d\r\n", client.MaxArrayLen))))
	if !errors.Is(err, io.EOF) {
		t.Errorf("maximal array header then EOF: err = %v, want io.EOF", err)
	}
}

// FuzzReadReply: arbitrary bytes never panic the reader, never yield more
// than the bounds allow, and parse the same way twice. Seeds: the
// server's own fuzz corpus (request lines — plausible garbage for a
// reply reader) plus one of each reply shape.
func FuzzReadReply(f *testing.F) {
	corpus, _ := filepath.Glob("../server/testdata/fuzz/FuzzParseCommand/*")
	for _, path := range corpus {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		_, lit, ok := strings.Cut(string(raw), "[]byte(")
		if !ok {
			continue
		}
		if s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")")); err == nil {
			f.Add([]byte(s + "\r\n"))
		}
	}
	for _, s := range []string{
		"+OK\r\n", ":7\n", "$-1\r\n", "*0\r\n", "*2\r\n1 2\r\n3 4\r\n", "$5\r\nhello\r\n", "$0\r\n\r\n",
		"-BUSY x\r\n", "$99999999999\r\n", "*-1\r\n", "$2\r\nabc\r\n", "\n", "*1\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		rep, err := client.ReadReply(bufio.NewReaderSize(bytes.NewReader(wire), 4096))
		again, err2 := client.ReadReply(bufio.NewReaderSize(bytes.NewReader(wire), 4096))
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(rep, again) {
			t.Fatalf("not deterministic: (%+v, %v) then (%+v, %v)", rep, err, again, err2)
		}
		if err != nil {
			return
		}
		if rep.Head == "" || len(rep.Bulk) > len(wire) || len(rep.Items) > len(wire) {
			t.Fatalf("reply %+v out of %d input bytes", rep, len(wire))
		}
		_ = rep.String()
		_ = rep.Fields()
		_, _ = rep.Pairs()
	})
}

// serve boots a real server over fresh in-memory pools on a loopback
// listener; replAddr is set when withSource is true.
func serve(t *testing.T, withSource bool, replicaOf string) (srv *server.Server, addr, replAddr string) {
	t.Helper()
	p, err := pool.Create("", pool.Config{Size: 16 << 20, Journals: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	srv, err = server.New(p, server.Options{Buckets: 64, ReplHeartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if replicaOf != "" {
		if err := srv.ReplicaOf(replicaOf); err != nil {
			t.Fatal(err)
		}
	}
	if withSource {
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.EnableReplicationSource(rln); err != nil {
			t.Fatal(err)
		}
		replAddr = rln.Addr().String()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), replAddr
}

// TestSessionTypedCalls drives every typed call against a real server.
func TestSessionTypedCalls(t *testing.T) {
	_, addr, _ := serve(t, false, "")
	s := client.NewSession(addr, 5*time.Second)
	defer s.Close()

	if _, found, err := s.Get(1); err != nil || found {
		t.Fatalf("Get(absent) = found %v, %v", found, err)
	}
	if err := s.Set(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(2, 200); err != nil {
		t.Fatal(err)
	}
	if v, found, err := s.Get(1); err != nil || !found || v != 100 {
		t.Fatalf("Get(1) = %d, %v, %v", v, found, err)
	}
	if existed, err := s.Del(1); err != nil || !existed {
		t.Fatalf("Del(1) = %v, %v", existed, err)
	}
	if existed, err := s.Del(1); err != nil || existed {
		t.Fatalf("second Del(1) = %v, %v", existed, err)
	}
	if pairs, err := s.Scan(0); err != nil || !reflect.DeepEqual(pairs, []client.KV{{2, 200}}) {
		t.Fatalf("Scan(0) = %v, %v", pairs, err)
	}
	info, err := s.Info()
	if err != nil || info["server"] != "corundum-server" {
		t.Fatalf("Info() = %v, %v", info, err)
	}
	stats, err := s.Stats()
	if err != nil || stats["ops_set"] != "2" {
		t.Fatalf("Stats() ops_set = %q, %v", stats["ops_set"], err)
	}
	// A refusal comes back as one, and leaves the connection usable.
	var refused client.Refusal
	if _, err := s.Do("BOGUS"); err != nil {
		t.Fatal(err)
	}
	if rep, _ := s.Do("SET a b"); !errors.As(rep.Refused(), &refused) {
		t.Fatalf("SET a b = %+v, want a refusal", rep)
	}
	if v, _, err := s.Get(2); err != nil || v != 200 {
		t.Fatalf("Get after refusals = %d, %v", v, err)
	}
}

// TestSessionRedialsAfterDrop: QUIT makes the server close the
// connection under the session; the command that hits the dead
// connection fails, and the one after it is served over a fresh dial.
func TestSessionRedialsAfterDrop(t *testing.T) {
	_, addr, _ := serve(t, false, "")
	s := client.NewSession(addr, 5*time.Second)
	defer s.Close()
	if err := s.Set(7, 70); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Do("QUIT"); err != nil || rep.Head != "+OK" {
		t.Fatalf("QUIT = %+v, %v", rep, err)
	}
	if _, _, err := s.Get(7); err == nil {
		t.Fatal("Get on the connection the server closed succeeded")
	} else if errors.Is(err, client.ErrProtocol) {
		t.Fatalf("dropped connection reported as a protocol error: %v", err)
	}
	if v, found, err := s.Get(7); err != nil || !found || v != 70 {
		t.Fatalf("Get after redial = %d, %v, %v", v, found, err)
	}
}

// TestSessionFollowsReplicaRedirect aims a session at a replica: its
// first mutation is refused with the redirect, the session re-aims at the
// primary's client address, and the retry lands there.
func TestSessionFollowsReplicaRedirect(t *testing.T) {
	_, primary, replAddr := serve(t, true, "")
	replicaSrv, replica, _ := serve(t, false, replAddr)

	// The redirect names the primary only once the handshake carried its
	// client address; until then the replica answers an address-free -BUSY.
	for deadline := time.Now().Add(10 * time.Second); replicaSrv.ReplicaStatus().PrimaryClientAddr == ""; {
		if time.Now().After(deadline) {
			t.Fatal("replica never completed its handshake")
		}
		time.Sleep(time.Millisecond)
	}

	s := client.NewSession(replica, 5*time.Second)
	defer s.Close()
	err := s.Set(1, 11)
	var refused client.Refusal
	if !errors.As(err, &refused) || client.ReadonlyPrimary(string(refused)) != primary {
		t.Fatalf("Set on replica = %v, want -READONLY %s", err, primary)
	}
	if s.Addr() != primary {
		t.Fatalf("session aimed at %s after the redirect, want %s", s.Addr(), primary)
	}
	if err := s.Set(1, 11); err != nil {
		t.Fatalf("Set after following the redirect: %v", err)
	}

	// The same through Retry: one call, refusal ridden out.
	s2 := client.NewSession(replica, 5*time.Second)
	defer s2.Close()
	line, err := client.Retry(nil, 5, time.Millisecond, 10*time.Millisecond, nil, func() (string, error) {
		rep, err := s2.Do("SET 2 22")
		return rep.Head, err
	})
	if err != nil || line != "+OK" {
		t.Fatalf("Retry over a redirecting session = %q, %v", line, err)
	}
	p := client.NewSession(primary, 5*time.Second)
	defer p.Close()
	if v, found, err := p.Get(2); err != nil || !found || v != 22 {
		t.Fatalf("primary Get(2) = %d, %v, %v", v, found, err)
	}
}
