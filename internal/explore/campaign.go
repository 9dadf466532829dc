// The scaffold the network campaigns (readers, repl) share: one
// client-shaped ack-logging write stream, a seed loader, and the SCAN
// helpers that read a keyspace back for the model checks. Everything
// talks to the servers through internal/client, like any real client.
package explore

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"corundum/internal/client"
)

// opTimeout bounds one campaign round trip (and dial); scanTimeout bounds
// a whole-keyspace SCAN.
const (
	opTimeout   = 2 * time.Second
	scanTimeout = 5 * time.Second
)

// mutation is one operation of a campaign write stream.
type mutation struct {
	del      bool
	key, val uint64
}

// ackWriter drives a campaign's client write stream. It is deliberately
// built like a real client — one session, redial on failure, follow
// -READONLY redirects, ride out -BUSY — because the contracts under test
// read "every write the CLIENT saw acknowledged survives", and only a
// client-shaped loop defines that set honestly. The stream is
// synchronous: at most one mutation is in flight, acks arrive in
// submission order, and every mutation retries until acknowledged (the
// round deadline, or stop, is the only way out).
type ackWriter struct {
	ackedN atomic.Int64
	done   chan struct{}
	// err is set when the round deadline passed with a mutation unacked.
	err error
	// pending is the one in-flight mutation when stop ended the stream:
	// the only write whose survival is legitimately ambiguous.
	pending *mutation
	// arm, when set, is called by the writer itself on its armAt-th ack,
	// before it sends the next mutation: a power cut armed "part-way
	// through the stream" cannot be outrun by the stream, however fast the
	// server acks (a campaign goroutine polling the ack count could).
	armAt int64
	arm   func()
}

func newAckWriter() *ackWriter { return &ackWriter{done: make(chan struct{})} }

// run issues n mutations against addr. next builds the i-th one (called
// once, before it first hits the wire); onAck folds an acknowledged one
// into the campaign's model, with the address that acknowledged it. stop,
// when non-nil, is polled before every attempt: once it reports true the
// stream ends with the current mutation recorded as pending.
func (w *ackWriter) run(addr string, n int, deadline time.Time,
	next func(i int) mutation, onAck func(m mutation, acker string), stop func() bool) {
	defer close(w.done)
	sess := client.NewSession(addr, opTimeout)
	defer sess.Close()
	last := "" // most recent refusal or transport error, for the wedge report
	for i := 0; i < n; i++ {
		m := next(i)
		for {
			if stop != nil && stop() {
				w.pending = &m
				return
			}
			if time.Now().After(deadline) {
				w.err = fmt.Errorf("writer wedged at mutation %d/%d (target %s, last reply %q)", i, n, sess.Addr(), last)
				return
			}
			var err error
			if m.del {
				_, err = sess.Del(m.key)
			} else {
				err = sess.Set(m.key, m.val)
			}
			if err == nil {
				break
			}
			// A refusal (-BUSY, a halting shard, a redirect the session has
			// already followed) or a dropped connection: back off, retry.
			last = err.Error()
			time.Sleep(retryPause(err))
		}
		onAck(m, sess.Addr())
		if w.ackedN.Add(1) == w.armAt && w.arm != nil {
			w.arm()
		}
	}
}

// retryPause is how long a campaign client waits before re-sending: a
// refusal came from a live server, a transport error may mean it is down.
func retryPause(err error) time.Duration {
	var refused client.Refusal
	if errors.As(err, &refused) {
		return 2 * time.Millisecond
	}
	return 5 * time.Millisecond
}

// waitAcks blocks until the writer has n acks (or finished, or the
// deadline passed).
func waitAcks(w *ackWriter, n int64, deadline time.Time) bool {
	for {
		if w.ackedN.Load() >= n {
			return true
		}
		select {
		case <-w.done:
			return w.ackedN.Load() >= n
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// seedKeys loads n keys through the client protocol before a round's
// traffic starts — the same stream, run to completion; kv names the i-th
// pair and is called before that pair first hits the wire.
func seedKeys(addr string, n int, deadline time.Time, kv func(i int) (key, val uint64)) error {
	w := newAckWriter()
	w.run(addr, n, deadline, func(i int) mutation {
		k, v := kv(i)
		return mutation{key: k, val: v}
	}, func(mutation, string) {}, nil)
	return w.err
}

// scanAll reads the full keyspace through the client protocol; nil map
// with nil error means the server answered but refused (e.g. -BUSY
// mid-bootstrap) and the caller should poll again.
func scanAll(addr string) (map[uint64]uint64, error) {
	sess := client.NewSession(addr, scanTimeout)
	defer sess.Close()
	pairs, err := sess.Scan(0)
	var refused client.Refusal
	if errors.As(err, &refused) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	m := make(map[uint64]uint64, len(pairs))
	for _, p := range pairs {
		m[p.Key] = p.Val
	}
	return m, nil
}

// scanUntil polls scanAll until the server answers a full SCAN (it may
// refuse briefly while a reboot settles) or the deadline passes.
func scanUntil(addr string, deadline time.Time) (map[uint64]uint64, error) {
	for {
		m, err := scanAll(addr)
		if err == nil && m != nil {
			return m, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("server kept refusing SCAN")
			}
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// converge polls both sides until their keyspaces are byte-exact equal,
// returning the common map.
func converge(primaryAddr, replicaAddr string, deadline time.Time) (map[uint64]uint64, error) {
	for {
		pm, errP := scanAll(primaryAddr)
		rm, errR := scanAll(replicaAddr)
		if errP == nil && errR == nil && pm != nil && rm != nil && mapsEqual(pm, rm) {
			return pm, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no convergence: primary %d keys (%v), replica %d keys (%v)",
				len(pm), errP, len(rm), errR)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func mapsEqual(a, b map[uint64]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
