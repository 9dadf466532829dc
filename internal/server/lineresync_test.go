package server_test

import (
	"strings"
	"testing"

	"corundum/internal/pool"
	"corundum/internal/server"
)

// TestOversizedLineKeepsConnection pins the oversized-line recovery
// contract: a request line longer than MaxLineLen is refused with -ERR
// and the stream resynchronizes at its newline — the pipelined requests
// behind it (including mutations already pending) still run, in order,
// on the same connection. Previously the whole connection was dropped,
// discarding the rest of the burst.
func TestOversizedLineKeepsConnection(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 8 << 20, Journals: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, p, server.Options{})
	defer srv.Close()

	cl := dial(t, addr)
	defer cl.close()

	// One pipelined burst: a mutation, an oversized-but-buffered line
	// (> MaxLineLen, < the 32 KiB read buffer), then more requests.
	burst := "SET 1 10\n" +
		strings.Repeat("x", server.MaxLineLen+100) + "\n" +
		"SET 2 20\nGET 1"
	if err := cl.Send(burst); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"+OK", "-ERR request line exceeds", "+OK", ":10"} {
		reply, err := cl.Recv()
		if err != nil {
			t.Fatalf("reply (want %q): %v", want, err)
		}
		if !strings.HasPrefix(reply.Head, want) {
			t.Fatalf("reply %q, want prefix %q", reply.Head, want)
		}
	}

	// The same connection keeps serving.
	mustReply(t, cl, "GET 2", ":20")
}

// TestOverflowingLineResyncsDeterministically covers the full-buffer
// case hasFullLine cannot resolve: a line with no newline anywhere in
// the 32 KiB read buffer. readLine must discard it chunk by chunk until
// its newline arrives — deterministic termination through the
// oversized-line path, not a spin — then keep the connection serving
// the requests behind it.
func TestOverflowingLineResyncsDeterministically(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 8 << 20, Journals: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, p, server.Options{})
	defer srv.Close()

	cl := dial(t, addr)
	defer cl.close()

	// 96 KiB of garbage — three read buffers' worth with no newline —
	// then the newline and a pipelined tail.
	burst := strings.Repeat("y", 96<<10) + "\nSET 3 30\nGET 3"
	if err := cl.Send(burst); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-ERR request line exceeds", "+OK", ":30"} {
		reply, err := cl.Recv()
		if err != nil {
			t.Fatalf("reply (want %q): %v", want, err)
		}
		if !strings.HasPrefix(reply.Head, want) {
			t.Fatalf("reply %q, want prefix %q", reply.Head, want)
		}
	}
	mustReply(t, cl, "PING", "+PONG")
}
