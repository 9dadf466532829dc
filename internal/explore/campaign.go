// The scaffold the network campaigns (readers, repl) share: one
// configuration, one round runner over a scenario table, one
// client-shaped write stream, one reader loop, and the SCAN helpers.
// Every client records what it observed into the round's
// histcheck.Recorder, and the round's verdict is histcheck.Check over
// that history (DESIGN §5.3): the campaigns script failures and keep
// coverage counters, the oracle judges. Everything talks to the servers
// through internal/client, like any real client.
package explore

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"corundum/internal/client"
	"corundum/internal/histcheck"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
)

// opTimeout bounds one campaign round trip (and dial); scanTimeout bounds
// a whole-keyspace SCAN; roundTimeout bounds one round end to end, sized
// for race-detector slowdown (a healthy round takes ~2s).
const (
	opTimeout    = 2 * time.Second
	scanTimeout  = 5 * time.Second
	roundTimeout = 120 * time.Second
)

// NetConfig parameterizes a network campaign (RunReaders, RunRepl); zero
// fields take the campaign's defaults.
type NetConfig struct {
	// Rounds is how many rounds to run; round r plays scenario r modulo
	// the campaign's table (default: two full rotations, readers 6 and
	// repl 10).
	Rounds int
	// WritesPerRound is the client write stream length (default: readers
	// 400, repl 200).
	WritesPerRound int
	// Readers is how many concurrent reader connections run (default 8).
	Readers int
	// Seed drives all randomness; equal seeds replay equal campaigns up
	// to goroutine scheduling (default 1).
	Seed int64
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (c NetConfig) withDefaults(d NetConfig) NetConfig {
	c.Rounds = cmp.Or(c.Rounds, d.Rounds)
	c.WritesPerRound = cmp.Or(c.WritesPerRound, d.WritesPerRound)
	c.Readers = cmp.Or(c.Readers, 8)
	c.Seed = cmp.Or(c.Seed, 1)
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// NetStats are the live counters every network campaign keeps, safe for
// concurrent reads.
type NetStats struct {
	// Rounds counts completed rounds.
	Rounds atomic.Uint64
	// Acked counts client writes acknowledged across all rounds.
	Acked atomic.Uint64
	// Reads counts reader GETs answered with a value or a miss.
	Reads atomic.Uint64
	// ScanPairs counts key/value pairs readers got out of SCANs.
	ScanPairs atomic.Uint64
	// Reboots counts crash→reattach→reserve cycles (either role).
	Reboots atomic.Uint64
	// Violations counts contract failures.
	Violations atomic.Uint64
}

// NetResult summarizes a completed network campaign with stats of type S.
type NetResult[S any] struct {
	// Stats is the final counter snapshot source.
	Stats *S
	// Violations holds every contract failure, each naming its round and
	// scenario: a histcheck.Violation, or a failure the round's script saw
	// itself (a power cut that never fired, a writer that wedged).
	Violations []error
}

// round is one round in play: its scenario, its deadline, and the
// history its clients record.
type round struct {
	i        int
	scen     string
	cfg      *NetConfig
	st       *NetStats
	deadline time.Time
	rec      *histcheck.Recorder
	mu       sync.Mutex // viols: readers fail concurrently
	viols    []error
}

func (r *round) fail(err error) {
	r.st.Violations.Add(1)
	err = fmt.Errorf("round %d (%s): %w", r.i, r.scen, err)
	r.mu.Lock()
	r.viols = append(r.viols, err)
	r.mu.Unlock()
	r.cfg.Log("explore: VIOLATION %v", err)
}

// runRounds is the one round runner: round i plays scenarios[i mod n],
// then the oracle judges the history the round's clients recorded. An
// error is an infrastructure failure (listen/attach errors, a wedged
// round) and ends the campaign; contract failures land in the result.
func runRounds[S any](name string, cfg NetConfig, stats *S, st *NetStats, scenarios []string,
	play func(r *round) error) (*NetResult[S], error) {
	res := &NetResult[S]{Stats: stats}
	for i := 0; i < cfg.Rounds; i++ {
		r := &round{i: i, scen: scenarios[i%len(scenarios)], cfg: &cfg, st: st,
			deadline: time.Now().Add(roundTimeout), rec: histcheck.NewRecorder()}
		cfg.Log("explore: %s round %d/%d scenario=%s", name, i+1, cfg.Rounds, r.scen)
		if err := play(r); err != nil {
			return nil, fmt.Errorf("explore: %s round %d (%s): %w", name, i, r.scen, err)
		}
		for _, v := range histcheck.Check(r.rec.History()) {
			r.fail(v)
		}
		res.Violations = append(res.Violations, r.viols...)
		st.Rounds.Add(1)
	}
	return res, nil
}

// host is one server of a round, with everything needed to power-cut and
// reboot it in place: the devices survive the crash, and the addresses
// are re-bound so peers and clients reconnect to the same place.
type host struct {
	name       string
	opts       server.Options
	source     bool // serves the replication stream
	devs       []*pmem.Device
	srv        *server.Server
	clientAddr string
	replAddr   string
}

// newHost brings up a server over shards fresh crash-tracking pools of
// size bytes. With source set it also serves the replication stream; with
// primaryAddr set it joins as a replica BEFORE the source is enabled, so
// the replication listener parks until a promotion. preJoin (may be nil)
// runs right before the join — it is how a scenario arms a power cut
// that lands mid-bootstrap.
func newHost(name string, shards, size int, opts server.Options, source bool, primaryAddr string, preJoin func(*host)) (*host, error) {
	n := &host{name: name, opts: opts, source: source}
	pools := make([]*pool.Pool, shards)
	for i := range pools {
		p, err := pool.Create("", pool.Config{Size: size, Journals: 8, Mem: pmem.Options{TrackCrash: true}})
		if err != nil {
			return nil, fmt.Errorf("%s: create pool %d: %w", name, i, err)
		}
		pools[i] = p
		n.devs = append(n.devs, p.Device())
	}
	return n, n.serve(pools, primaryAddr, preJoin)
}

// serve starts a server over pools on n's addresses — fresh loopback
// ports the first time.
func (n *host) serve(pools []*pool.Pool, primaryAddr string, preJoin func(*host)) error {
	srv, err := server.NewSharded(pools, n.opts)
	if err != nil {
		return fmt.Errorf("%s: %w", n.name, err)
	}
	if preJoin != nil {
		preJoin(n)
	}
	if primaryAddr != "" {
		if err := srv.ReplicaOf(primaryAddr); err != nil {
			return fmt.Errorf("%s: replicaof: %w", n.name, err)
		}
	}
	if n.source {
		rln, err := listenAt(n.replAddr)
		if err != nil {
			return err
		}
		if err := srv.EnableReplicationSource(rln); err != nil {
			return fmt.Errorf("%s: enable source: %w", n.name, err)
		}
		n.replAddr = rln.Addr().String()
	}
	ln, err := listenAt(n.clientAddr)
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	n.srv, n.clientAddr = srv, ln.Addr().String()
	return nil
}

// listenAt binds a fresh loopback port when addr is empty, and otherwise
// re-binds an address the host held before its crash: the old listener
// closes inside srv.Close, but the kernel may lag a moment.
func listenAt(addr string) (net.Listener, error) {
	if addr == "" {
		return net.Listen("tcp", "127.0.0.1:0")
	}
	var err error
	for i := 0; i < 200; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, fmt.Errorf("rebind %s: %w", addr, err)
}

// reboot models the machine cycling power after an injected crash: the
// server is torn down, every device reverts to its durable image, the
// pools are re-attached (running recovery), and a new server comes up on
// the SAME addresses — as a replica of primaryAddr when set. The old
// pools are abandoned, not closed: their devices are poisoned.
func (n *host) reboot(r *round, primaryAddr string) error {
	_ = n.srv.Close()
	for _, d := range n.devs {
		d.Crash()
	}
	r.rec.Crash(n.clientAddr)
	pools, errs := server.AttachShards(n.devs)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: reattach shard %d: %w", n.name, i, err)
		}
	}
	r.st.Reboots.Add(1)
	return n.serve(pools, primaryAddr, nil)
}

// waitShardDown polls until some shard of srv reports a crash-induced
// failure — how a supervisor notices the injected power cut fired.
func waitShardDown(srv *server.Server, deadline time.Time) bool {
	for {
		for i := 0; i < srv.Shards(); i++ {
			if srv.ShardDown(i) != nil {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mutation is one operation of a campaign write stream.
type mutation struct {
	del      bool
	key, val uint64
}

// ackWriter drives a round's client write stream. It is deliberately
// built like a real client — one session, redial on failure, follow
// -READONLY redirects, ride out -BUSY — because the contract under test
// reads "every write the CLIENT saw acknowledged survives", and only a
// client-shaped loop defines that set honestly. The stream is
// synchronous: at most one mutation is in flight, acks arrive in
// submission order, and every mutation retries until acknowledged (the
// round deadline, or stop, is the only way out). Each mutation is
// recorded before it first hits the wire, and its ack with the node that
// gave it.
type ackWriter struct {
	r      *round
	ackedN atomic.Int64
	done   chan struct{}
	// err is set when the round deadline passed with a mutation unacked.
	err error
	// arm, when set, is called by the writer itself on its armAt-th ack,
	// before it sends the next mutation: a power cut armed "part-way
	// through the stream" cannot be outrun by the stream, however fast the
	// server acks (a campaign goroutine polling the ack count could).
	armAt int64
	arm   func()
}

func newAckWriter(r *round) *ackWriter { return &ackWriter{r: r, done: make(chan struct{})} }

// run issues n mutations against addr. next builds the i-th one (called
// once, before it first hits the wire, so after the one before was
// acknowledged). stop, when set, is polled before every attempt: once it
// reports true the stream ends, the mutation in flight left without a
// reply.
func (w *ackWriter) run(addr string, n int, next func(i int) mutation, stop func() bool) {
	defer close(w.done)
	sess := client.NewSession(addr, opTimeout)
	defer sess.Close()
	last := "" // most recent refusal or transport error, for the wedge report
	for i := 0; i < n; i++ {
		m := next(i)
		id := w.r.rec.Write(0, m.del, m.key, m.val)
		for {
			if stop != nil && stop() {
				return
			}
			if time.Now().After(w.r.deadline) {
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
		w.r.rec.Ack(id, sess.Addr())
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
func waitAcks(w *ackWriter, n int64) {
	for w.ackedN.Load() < n && time.Now().Before(w.r.deadline) {
		select {
		case <-w.done:
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// seed loads n keys through the client protocol before the round's
// traffic starts — the same stream, run to completion.
func (r *round) seed(addr string, n int, next func(i int) mutation) error {
	w := newAckWriter(r)
	w.run(addr, n, next, nil)
	return w.err
}

// startReaders starts the round's readers against addr, each picking its
// GET keys with key, and returns the function that stops them and waits.
func (r *round) startReaders(addr string, key func(*rand.Rand) uint64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i <= r.cfg.Readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.reader(id, addr, done, key)
		}(i)
	}
	return func() { close(done); wg.Wait() }
}

// reader is one hammering connection: GETs with a SCAN burst every 24th
// request, each answer recorded for the oracle. Refusals (-BUSY, a down
// shard) and dropped connections are part of the script — it backs off
// and keeps hammering until done closes. A malformed reply is a
// violation and ends it.
func (r *round) reader(id int, addr string, done chan struct{}, key func(*rand.Rand) uint64) {
	rng := rand.New(rand.NewSource(r.cfg.Seed ^ int64(r.i*100+id)))
	sess := client.NewSession(addr, opTimeout)
	defer sess.Close()
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		inv := r.rec.Now()
		var err error
		if i%24 == 23 {
			var pairs []client.KV
			if pairs, err = sess.Scan(8 + rng.Intn(40)); err == nil {
				for _, p := range pairs {
					r.rec.Read(id, addr, p.Key, p.Val, true, inv)
				}
				r.st.ScanPairs.Add(uint64(len(pairs)))
			}
		} else {
			k := key(rng)
			var v uint64
			var found bool
			if v, found, err = sess.Get(k); err == nil {
				r.rec.Read(id, addr, k, v, found, inv)
				r.st.Reads.Add(1)
			}
		}
		if errors.Is(err, client.ErrProtocol) {
			r.fail(fmt.Errorf("reader %d: %w", id, err))
			return
		}
		if err != nil {
			time.Sleep(retryPause(err))
		}
	}
}

// keyspace reads addr's whole keyspace, waiting out refusals, and records
// it for the oracle.
func (r *round) keyspace(addr string) error {
	inv := r.rec.Now()
	m, err := scanUntil(addr, r.deadline)
	if err == nil {
		r.rec.Keyspace(0, addr, m, inv)
	}
	return err
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
		if errP == nil && errR == nil && pm != nil && rm != nil && maps.Equal(pm, rm) {
			return pm, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no convergence: primary %d keys (%v), replica %d keys (%v)",
				len(pm), errP, len(rm), errR)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
