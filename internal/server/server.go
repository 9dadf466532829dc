package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corundum/internal/obs"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// Options tunes a Server.
type Options struct {
	// MaxBatch is the most SET/DEL operations folded into one group-commit
	// transaction (default 64).
	MaxBatch int
	// Buckets is a new store's base directory size (default 4096): the
	// coordinate system migration cursors and backup chunks count in, and
	// where its directory starts before growing with its keys. Tests set it
	// small to exercise growth and migration windows. Ignored when
	// attaching to an existing store.
	Buckets int
	// BusyTimeout bounds how long a request waits for a free journal slot
	// before the server answers -BUSY, a retryable backpressure signal,
	// instead of blocking the connection forever (default 100ms; negative
	// disables and restores unbounded blocking).
	BusyTimeout time.Duration
	// TraceSample tunes op tracing: 1 (the default) traces every
	// operation, N>1 every Nth, negative disables tracing and per-op
	// latency recording entirely (the hot path pays one atomic load).
	// Phase histograms, STATS latency keys, SLOWLOG, and /debug/trace all
	// feed from this.
	TraceSample int
	// TraceRing bounds how many completed op traces SLOWLOG and
	// /debug/trace can look back over (default 4096).
	TraceRing int
	// ShardOpener opens (or creates) the pool for shard i when a RESHARD
	// grows the cluster beyond the pools the server booted with. The
	// server owns pools it opens this way and closes them on Close. The
	// default opener creates an in-memory pool with shard 0's geometry —
	// right for tests and benchmarks; corundum-server installs a
	// file-backed opener.
	ShardOpener func(i int) (*pool.Pool, error)
	// MigrationThrottle is slept between migration batches so a RESHARD
	// trades completion time for serving throughput (default 0: as fast
	// as the batches commit).
	MigrationThrottle time.Duration
	// MigrateBatchBuckets is how many base directory buckets one
	// crash-atomic migration batch covers (default 64). Smaller batches mean finer
	// fence windows (less -MOVED churn per batch) and more manifest
	// writes.
	MigrateBatchBuckets int
	// ReplHeartbeat is the replication link's idle cadence (default
	// 500ms); read/write deadlines and reconnect timing derive from it.
	// Tests shrink it to tens of milliseconds.
	ReplHeartbeat time.Duration
	// ReplLogFrames bounds the primary's in-memory replication window
	// (default 4096 frames; replLogBytes bounds its bytes). A replica that
	// falls out of the window is degraded to a full resync instead of
	// stalling commits.
	ReplLogFrames int
}

const (
	// replLogBytes bounds the bytes of the primary's replication window.
	replLogBytes = 8 << 20
	// replDrainTimeout bounds how long a graceful Close waits for
	// connected replicas to acknowledge the full stream.
	replDrainTimeout = 5 * time.Second
)

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.Buckets <= 0 {
		o.Buckets = 4096
	}
	if o.BusyTimeout == 0 {
		o.BusyTimeout = 100 * time.Millisecond
	}
	if o.TraceSample == 0 {
		o.TraceSample = 1
	}
	if o.TraceSample < 0 {
		o.TraceSample = 0 // obs.Tracer's "off"
	}
	if o.TraceRing <= 0 {
		o.TraceRing = 4096
	}
	if o.MigrateBatchBuckets <= 0 {
		o.MigrateBatchBuckets = 64
	}
	if o.ReplHeartbeat <= 0 {
		o.ReplHeartbeat = 500 * time.Millisecond
	}
	if o.ReplLogFrames <= 0 {
		o.ReplLogFrames = 4096
	}
	return o
}

// routeState is the server's routing view, swapped atomically when a
// migration starts or commits. shards is the full live set (during a
// migration it includes both the old layout's sources and the new
// layout's targets); n is the serving layout's shard count; rs, when
// non-nil, is the active migration whose cursors refine key ownership.
type routeState struct {
	shards []*shard
	n      int
	rs     *workloads.Resharder
}

// owner answers which shard serves key under this routing view.
func (st *routeState) owner(key uint64) int {
	if st.rs != nil {
		return st.rs.Owner(key)
	}
	return workloads.ShardFor(key, st.n)
}

// Server is one corundum-server instance over one or more shard pools.
// Keys route to shards by hash; each shard commits, recovers, degrades,
// and fails independently of its siblings. The shard set itself is
// dynamic: RESHARD migrates the keyspace to a different shard count
// while serving (see migrate.go), atomically swapping the routing view.
type Server struct {
	state atomic.Pointer[routeState]
	opts  Options

	start time.Time

	// all tracks every shard this server ever created — including
	// migration targets and sources retired by a merge — so Close stops
	// every batcher exactly once, whatever the routing view says.
	// ownedPools are pools the server itself opened (via ShardOpener) and
	// therefore closes.
	allMu      sync.Mutex
	all        []*shard
	ownedPools []*pool.Pool

	// Migration driver lifecycle: the background goroutine that steps an
	// active Resharder. Close stops it at a batch boundary (the manifest
	// cursor is durable there — that IS the SIGTERM checkpoint).
	migMu      sync.Mutex
	migStop    chan struct{}
	migWG      sync.WaitGroup
	migLastErr error
	// adminOp names the exclusive admin command in flight (BACKUP,
	// RESTORE), guarded by migMu; RESHARD and the stream commands exclude
	// each other.
	adminOp string

	// restoreWiped records that boot found a crashed RESTORE's marker and
	// wiped the pools back to empty (surfaced in INFO).
	restoreWiped atomic.Bool

	// lockedMode makes every read skip its bracket and walk under the
	// shard's read lock. Only tests set it (export_test.go).
	lockedMode atomic.Bool

	// Replication (see replication.go). replMu guards repl; the atomics
	// are the hot-path gates: primaryAddr (non-nil ⇒ replica role ⇒
	// mutations answer -READONLY <addr>), replLoading (snapshot bootstrap
	// in flight ⇒ reads answer -BUSY), replEpoch (stamped into every
	// published frame on a primary).
	replMu      sync.Mutex
	repl        replState
	replEpoch   atomic.Uint64
	primaryAddr atomic.Pointer[string]
	replLoading atomic.Bool

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool

	halted     atomic.Bool  // every shard is down
	downShards atomic.Int64 // shards currently fenced off

	failMu  sync.Mutex
	failErr error

	wg sync.WaitGroup

	// testHook, when non-nil, runs at the top of every dispatch. It exists
	// so tests can inject handler-goroutine faults (panics) deterministically;
	// it must be set before Serve and is nil in production.
	testHook func(Command)

	// backupChunkHook, when non-nil, runs after each snapshot walk window
	// (shard id, first bucket of the window) — tests use it to interleave
	// mutations with the walk deterministically. Nil in production.
	backupChunkHook func(shard int, bucket uint64)

	// m holds the registry-backed metrics; STATS and GET /metrics render
	// from the same instruments.
	m *serverMetrics

	// tracer retains sampled op traces for SLOWLOG and /debug/trace; its
	// sample knob also gates all per-op latency recording.
	tracer *obs.Tracer
}

// st returns the current routing view.
func (s *Server) st() *routeState { return s.state.Load() }

// Batcher exposes shard 0's group-commit engine (stats, benchmarks on
// single-shard servers). It is nil when shard 0 never came up.
func (s *Server) Batcher() *Batcher { return s.st().shards[0].b }

// Shards reports the serving layout's shard count.
func (s *Server) Shards() int { return s.st().n }

// ShardDown reports why shard i is not serving, or nil when it is.
func (s *Server) ShardDown(i int) error { return s.st().shards[i].down() }

// BatchTotals sums the group-commit counters across every shard's
// batcher: committed transactions and the mutations inside them.
func (s *Server) BatchTotals() (batches, ops uint64) {
	for _, sh := range s.st().shards {
		if sh.b == nil {
			continue
		}
		bs := sh.b.Stats()
		batches += bs.Batches.Load()
		ops += bs.BatchedOps.Load()
	}
	return batches, ops
}

// Halted reports whether every shard failed underneath the server.
func (s *Server) Halted() bool { return s.halted.Load() }

// Serve accepts connections on ln until the listener fails or the server
// is closed or halted. It can be called on several listeners concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			if s.halted.Load() || s.isClosed() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed || s.halted.Load() {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.m.connsTotal.Inc()
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops accepting, closes every connection, waits for their
// goroutines, and drains every shard's batcher. The pools themselves
// stay open — their owner closes them.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, ln := range s.listeners {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait() // after this no goroutine can Submit
	// Stop the migration driver BEFORE the batchers: it barriers into
	// them, and stopping it at a batch boundary leaves the manifest
	// cursor durable — the graceful-shutdown checkpoint a restart
	// resumes from.
	s.stopMigration()
	for _, sh := range s.allShards() {
		if sh.b != nil {
			sh.b.Stop()
		}
	}
	// After the batcher drain every committed batch is published to the
	// replication log; closeReplication drains connected replicas to the
	// stream's end before tearing the link down, so a graceful shutdown
	// leaves replicas at zero lag.
	s.closeReplication()
	s.allMu.Lock()
	owned := append([]*pool.Pool(nil), s.ownedPools...)
	s.allMu.Unlock()
	for _, p := range owned {
		p.Close()
	}
	return nil
}

func (s *Server) removeConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer s.removeConn(c)
	defer c.Close()
	// A panic out of this connection's handling is recorded and takes down
	// only this connection: one malformed or bug-triggering client must
	// not kill the process (or the pools) for everyone else. Injected-crash
	// panics are not isolated — they model power loss and are converted
	// into a shard failure on the paths that touch a device.
	defer func() {
		if r := recover(); r != nil {
			if r == pmem.ErrInjectedCrash {
				panic(r)
			}
			s.m.connPanics.Inc()
			// Best effort: tell the client before dropping it.
			fmt.Fprintf(c, "-ERR internal error: connection dropped\r\n")
		}
	}()
	// The read buffer is sized well beyond one request line so that a
	// pipelining connection's burst is visible to hasFullLine: with a
	// buffer of exactly one line, a run would end at every buffer drain
	// (~a dozen requests) no matter how deep the client pipelines, and
	// sharded batchers would starve. Line length is still enforced, by
	// readLine.
	cn := &conn{s: s, r: bufio.NewReaderSize(c, connReadBuf), w: bufio.NewWriter(c), traces: s.tracer.Buffer()}
	defer cn.traces.Flush()
	// The run cap scales with the shard count because the run is split by
	// key hash before submission: each shard's slice of a full run still
	// averages MaxBatch ops.
	runCap := s.opts.MaxBatch * s.st().n
	cn.pending = make([]pendingMut, 0, runCap)
	r, w := cn.r, cn.w
	for {
		buffered := r.Buffered()
		line, err := readLine(r)
		switch {
		case err == nil:
		case errors.Is(err, ErrLineTooLong):
			// readLine already resynchronized to the next newline: refuse
			// this request alone and keep the connection — the pipelined
			// requests behind the oversized line are still valid. The
			// pending run flushes first so replies stay in request order.
			cn.flushMutations()
			writeErr(w, err)
			cn.mark()
			if r.Buffered() == 0 {
				if cn.flush() != nil {
					return
				}
			}
			continue
		default:
			// EOF, reset, or server-initiated close. Any still-pending run
			// was never submitted: those ops are unacknowledged and may be
			// absent after the drop, which the protocol permits.
			return
		}
		// The op's birth for latency purposes: a request that was whole in
		// the buffer at the last op boundary has been waiting since that
		// boundary's stamp; one that needed a read from the socket starts
		// now. So a pipelined burst reads the clock once, not once per op.
		cn.traced = s.tracer.SampleRate() > 0
		if !cn.traced {
			cn.lastNS = 0
		} else if cn.lastNS == 0 || len(line)+1 > buffered {
			cn.lastNS = obs.NowNS()
		}
		cmd, perr := ParseCommand(line)
		switch {
		case perr != nil:
			cn.flushMutations()
			writeErr(w, perr)
			cn.mark()
			if errors.Is(perr, ErrBinaryLine) {
				w.Flush()
				return
			}
		case cmd.Kind == CmdSet || cmd.Kind == CmdDel:
			// Everything from the op's birth to the durable-commit ack is
			// decomposed into phases.
			cn.pending = append(cn.pending, pendingMut{cmd: cmd, startNS: cn.lastNS})
			if len(cn.pending) < runCap && hasFullLine(r) {
				continue
			}
			cn.flushMutations()
		default:
			cn.flushMutations()
			if quit := cn.dispatch(cmd); quit {
				w.Flush()
				return
			}
			cn.recordRead(cn.mark())
		}
		// Flush only when no further request is already buffered: pipelined
		// clients get their replies in one segment.
		if r.Buffered() == 0 {
			if cn.flush() != nil {
				return
			}
		}
	}
}

// conn is one client connection's serving state: its buffered reader and
// writer, the run of pipelined mutations not yet submitted, the scratch
// that submitting a run reuses, and the clock stamp of its last op
// boundary. Only the connection's own goroutine touches it.
type conn struct {
	s *Server
	r *bufio.Reader
	w *bufio.Writer
	// pending holds a run of consecutive SET/DEL commands this connection
	// has pipelined. The run is submitted to the batchers as one group the
	// moment the read buffer holds no further complete request (or the run
	// reaches the cap, or a non-mutating command needs the run's effects).
	// This is what lets a single pipelining connection fill a group-commit
	// batch instead of trickling one op per round trip.
	pending []pendingMut
	parts   []shardRun     // per shard index: that shard's slice of a run
	results []SubmitResult // per op of a run, in request order
	// traced is whether the op being served is timed (the tracer's knob,
	// read once per request); lastNS is the obs.NowNS stamp of the last op
	// boundary, 0 while untraced.
	traced bool
	lastNS int64
	// read is the timed read awaiting its reply stamp (startNS 0: none).
	read pendingRead
	// traces stages the connection's op traces until its burst ends.
	traces *obs.TraceBuffer
}

// flush ends a burst: the replies go out in one segment and the burst's
// traces reach the ring as one run.
func (c *conn) flush() error {
	c.traces.Flush()
	return c.w.Flush()
}

// pendingRead is a served GET or SCAN whose latency is recorded once the
// op boundary after its reply is stamped.
type pendingRead struct {
	name    string
	key     uint64
	startNS int64 // the op's birth
	readNS  int64 // the store walk's end
}

// mark stamps an op boundary (a reply written) and returns the stamp, 0
// when the op is untraced.
func (c *conn) mark() int64 {
	c.lastNS = 0
	if c.traced {
		c.lastNS = obs.NowNS()
	}
	return c.lastNS
}

// pendingMut is one pipelined mutation awaiting submission, stamped with
// its birth (0 when untraced) so queue wait is measured from when the op
// arrived.
type pendingMut struct {
	cmd     Command
	startNS int64
}

// shardRun is one shard's slice of a connection's mutation run: the ops,
// their birth stamps and their positions in the run, plus the completion
// the shard's committer answers them in. Reused from run to run.
type shardRun struct {
	ops []workloads.Op
	ns  []int64
	idx []int
	b   *Batcher // the batcher the slice was enqueued to; nil if none
	run *run
}

// flushMutations partitions the connection's pipelined run of mutations
// by owning shard, enqueues each slice to that shard's batcher — every
// shard's before waiting on any, so the shards commit concurrently — and
// writes the replies back in submission order. Ack-after-commit holds per
// op: a reply is written only after the shard transaction holding that op
// has durably committed. Each successful op's latency is decomposed into
// queue / journal / fence / apply / ack phases (see PhaseTimes) and
// recorded into the latency histograms and — when sampled — the trace
// ring.
func (c *conn) flushMutations() {
	cmds := c.pending
	if len(cmds) == 0 {
		return
	}
	c.pending = cmds[:0]
	s, w := c.s, c.w
	// A replica owns no write path: every mutation is redirected to the
	// primary (-READONLY <addr>), never applied locally — local writes
	// would silently diverge from the stream.
	if err := s.replicaRefusal(); err != nil {
		for range cmds {
			s.writeReplyErr(w, err)
		}
		c.mark()
		return
	}
	// Partition by current ownership: during a migration the Resharder's
	// cursor refines the plain hash route, so an op lands at the shard
	// that owns its key right now. The batcher's fence re-vets each op at
	// commit time — an op that raced a cursor advance is answered -MOVED
	// and retried by the client, never misapplied.
	st := s.st()
	for len(c.parts) < len(st.shards) {
		c.parts = append(c.parts, shardRun{run: newRun()})
	}
	parts := c.parts[:len(st.shards)]
	for i := range parts {
		p := &parts[i]
		p.ops, p.ns, p.idx, p.b = p.ops[:0], p.ns[:0], p.idx[:0], nil
	}
	c.results = c.results[:0]
	for i, pm := range cmds {
		op := workloads.Op{Del: pm.cmd.Kind == CmdDel, Key: pm.cmd.Key, Val: pm.cmd.Val}
		p := &parts[st.owner(op.Key)]
		p.ops = append(p.ops, op)
		p.ns = append(p.ns, pm.startNS)
		p.idx = append(p.idx, i)
		c.results = append(c.results, SubmitResult{})
	}
	for si := range parts {
		p := &parts[si]
		if len(p.ops) == 0 {
			continue
		}
		sh := st.shards[si]
		if err := sh.writable(); err != nil {
			for _, i := range p.idx {
				c.results[i] = SubmitResult{Err: err}
			}
			continue
		}
		var dels uint64
		for _, op := range p.ops {
			if op.Del {
				dels++
			}
		}
		s.m.opsDel.Add(dels)
		s.m.opsSet.Add(uint64(len(p.ops)) - dels)
		p.b = sh.b
		p.b.enqueue(p.run, p.ops, p.ns)
	}
	for si := range parts {
		p := &parts[si]
		if p.b == nil {
			continue
		}
		p.b.wait(p.run)
		for k, i := range p.idx {
			c.results[i] = p.run.out[k]
		}
	}
	for i, res := range c.results {
		switch {
		case res.Err != nil:
			s.writeReplyErr(w, res.Err)
		case cmds[i].cmd.Kind == CmdDel:
			if res.Removed {
				writeInt(w, 1)
			} else {
				writeInt(w, 0)
			}
		default:
			writeOK(w)
		}
	}
	// One stamp after the whole run's replies are written: they leave in
	// one segment, so it is every op's reply time.
	if repNS := c.mark(); repNS != 0 {
		for i, res := range c.results {
			if res.Err == nil && cmds[i].startNS != 0 {
				c.recordMutation(cmds[i], res.Phases, repNS)
			}
		}
	}
}

// recordMutation feeds one acked mutation's phase decomposition into the
// latency histograms and, when this op is sampled, the trace ring. The
// reply timestamp repNS is taken after the reply bytes were written, so
// the ack phase covers reply serialization and the five phases tile the
// op's end-to-end latency exactly.
func (c *conn) recordMutation(pm pendingMut, ph PhaseTimes, repNS int64) {
	s := c.s
	ackNS := max(0, repNS-ph.DoneNS)
	e2e := repNS - pm.startNS
	m := s.m
	m.opSecondsMut.Observe(float64(e2e) / 1e9)
	m.phaseQueue.Observe(float64(ph.QueueNS) / 1e9)
	m.phaseJournal.Observe(float64(ph.JournalNS) / 1e9)
	m.phaseFence.Observe(float64(ph.FenceNS) / 1e9)
	m.phaseApply.Observe(float64(ph.ApplyNS) / 1e9)
	m.phaseAck.Observe(float64(ackNS) / 1e9)
	if !s.tracer.Sampled() {
		return
	}
	name := "SET"
	if pm.cmd.Kind == CmdDel {
		name = "DEL"
	}
	phases := [...]obs.PhaseNS{
		{Name: "queue", Dur: ph.QueueNS},
		{Name: "journal", Dur: ph.JournalNS},
		{Name: "fence", Dur: ph.FenceNS},
		{Name: "apply", Dur: ph.ApplyNS},
		{Name: "ack", Dur: ackNS},
	}
	for i := 1; i < len(phases); i++ {
		phases[i].Start = phases[i-1].Start + phases[i-1].Dur
	}
	c.traces.Record(obs.OpTrace{
		Name:  name,
		Shard: s.st().owner(pm.cmd.Key),
		Key:   pm.cmd.Key,
		Start: pm.startNS,
		Dur:   e2e,
	}, phases[:]...)
}

// hasFullLine reports whether the reader's buffer already holds a
// complete request line, without reading from the connection. A partial
// line means the client is mid-write; waiting on it with unsubmitted
// mutations pending could deadlock a client that expects those acks
// before finishing its next request.
//
// The degenerate case — a buffer completely full with no newline — also
// answers false, and cannot spin: the pending run flushes once, then the
// loop blocks in readLine, whose ReadSlice sees the full buffer, returns
// ErrBufferFull, and enters the oversized-line discard path, which
// consumes the buffer each round and so terminates deterministically
// (refused with -ERR, connection kept).
func hasFullLine(r *bufio.Reader) bool {
	buf, _ := r.Peek(r.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

// connReadBuf is the per-connection read buffer: large enough to hold a
// deep pipelined burst (hundreds of requests), so mutation runs are
// bounded by the client and the run cap, not by buffer geometry.
const connReadBuf = 32 << 10

// readLine returns the next '\n'-terminated line without its terminator.
// Lines longer than MaxLineLen are rejected as ErrLineTooLong — with the
// stream already resynchronized to the byte after the offending line's
// newline, so the caller can refuse just that request and keep serving
// the pipelined requests behind it. A line that overflows the whole read
// buffer is discarded chunk by chunk until its newline arrives; each
// ReadSlice either finds the newline, refills a full buffer (bounded
// progress — the chunk is consumed), or surfaces the connection error,
// so the discard loop terminates deterministically.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		for err == bufio.ErrBufferFull {
			_, err = r.ReadSlice('\n')
		}
		if err != nil {
			return nil, err // EOF/reset mid-discard: the connection is gone
		}
		return nil, ErrLineTooLong
	}
	if err != nil {
		return nil, err
	}
	if len(line)-1 > MaxLineLen {
		// ReadSlice consumed through the newline, so the stream is in sync.
		return nil, ErrLineTooLong
	}
	return line[:len(line)-1], nil
}

// dispatch executes one parsed non-mutating command and writes its reply
// (SET/DEL go through flushMutations). It reports whether the connection
// should close (QUIT).
func (c *conn) dispatch(cmd Command) (quit bool) {
	s, w := c.s, c.w
	if s.testHook != nil {
		s.testHook(cmd)
	}
	if s.halted.Load() && cmd.Kind != CmdPing && cmd.Kind != CmdQuit {
		writeErr(w, s.failure())
		return false
	}
	// During a snapshot bootstrap the keyspace is mid-load: reads would
	// see an arbitrary partial state, so they answer -BUSY until the
	// bootstrap commits.
	if s.replLoading.Load() && (cmd.Kind == CmdGet || cmd.Kind == CmdScan) {
		s.writeReplyErr(w, fmt.Errorf("%w: replica bootstrap in progress", pool.ErrBusy))
		return false
	}
	switch cmd.Kind {
	case CmdGet:
		s.m.opsGet.Inc()
		startNS := c.lastNS
		val, found, err := s.get(cmd.Key)
		readNS := c.stamp()
		switch {
		case err != nil:
			s.writeReplyErr(w, err)
		case found:
			writeInt(w, val)
		default:
			writeNil(w)
		}
		if err == nil {
			c.read = pendingRead{name: "GET", key: cmd.Key, startNS: startNS, readNS: readNS}
		}
	case CmdScan:
		s.m.opsScan.Inc()
		startNS := c.lastNS
		pairs, err := s.scan(cmd.Limit)
		readNS := c.stamp()
		if err != nil {
			s.writeReplyErr(w, err)
		} else {
			fmt.Fprintf(w, "*%d\r\n", len(pairs)/2)
			for i := 0; i < len(pairs); i += 2 {
				writePair(w, pairs[i], pairs[i+1])
			}
		}
		if err == nil {
			c.read = pendingRead{name: "SCAN", startNS: startNS, readNS: readNS}
		}
	case CmdInfo:
		writeBulk(w, s.renderInfo())
	case CmdStats:
		writeBulk(w, s.renderStats())
	case CmdScrub:
		s.m.opsScrub.Inc()
		writeBulk(w, s.runScrub())
	case CmdSlowlog:
		c.traces.Flush() // this connection's own traces count too
		writeBulk(w, obs.FormatSlowlog(s.tracer.Slowest(cmd.Limit)))
	case CmdReshard:
		if err := s.Reshard(int(cmd.Key)); err != nil {
			s.writeReplyErr(w, err)
		} else {
			writeOK(w)
		}
	case CmdBackup:
		rep, err := s.Backup(cmd.Path)
		if err != nil {
			s.writeReplyErr(w, err)
		} else {
			writeBulk(w, fmt.Sprintf(
				"path: %s\nshards: %d\nepoch: %d\nbase_keys: %d\ndelta_ops: %d\n",
				rep.Path, rep.Shards, rep.Epoch, rep.BaseKeys, rep.DeltaOps))
		}
	case CmdRestore:
		rep, err := s.Restore(cmd.Path)
		if err != nil {
			s.writeReplyErr(w, err)
		} else {
			writeBulk(w, fmt.Sprintf(
				"path: %s\nbackup_shards: %d\nbackup_epoch: %d\nbase_keys: %d\ndelta_ops: %d\n",
				rep.Path, rep.Shards, rep.Epoch, rep.BaseKeys, rep.DeltaOps))
		}
	case CmdReplicaOf:
		if err := s.ReplicaOf(cmd.Path); err != nil {
			s.writeReplyErr(w, err)
		} else {
			writeOK(w)
		}
	case CmdPromote:
		if err := s.Promote(); err != nil {
			s.writeReplyErr(w, err)
		} else {
			writeOK(w)
		}
	case CmdReplInfo:
		writeBulk(w, s.renderReplInfo())
	case CmdPing:
		w.WriteString("+PONG\r\n")
	case CmdQuit:
		writeOK(w)
		return true
	}
	return false
}

// stamp reads the clock mid-op when the op is traced.
func (c *conn) stamp() int64 {
	if c.lastNS == 0 {
		return 0
	}
	return obs.NowNS()
}

// recordRead feeds the pending read, if any, into the read latency
// histogram and, when sampled, the trace ring: a "read" phase (the store
// walk, from the op's birth) and an "ack" phase (reply serialization, up
// to repNS, the boundary stamped after the reply).
func (c *conn) recordRead(repNS int64) {
	rd := c.read
	c.read = pendingRead{}
	if rd.startNS == 0 || repNS == 0 {
		return
	}
	s := c.s
	e2e := repNS - rd.startNS
	s.m.opSecondsRead.Observe(float64(e2e) / 1e9)
	if !s.tracer.Sampled() {
		return
	}
	shardID := -1
	if rd.name == "GET" {
		shardID = s.st().owner(rd.key)
	}
	phases := [...]obs.PhaseNS{
		{Name: "read", Start: 0, Dur: rd.readNS - rd.startNS},
		{Name: "ack", Start: rd.readNS - rd.startNS, Dur: repNS - rd.readNS},
	}
	c.traces.Record(obs.OpTrace{
		Name:  rd.name,
		Shard: shardID,
		Key:   rd.key,
		Start: rd.startNS,
		Dur:   e2e,
	}, phases[:]...)
}

// get and scan serve reads, each shard's walk through read (readpath.go).
func (s *Server) get(key uint64) (val uint64, found bool, err error) {
	for {
		st := s.st()
		o := st.owner(key)
		sh := st.shards[o]
		if err = sh.down(); err != nil {
			return 0, false, err
		}
		err = s.read(sh, func() (err error) {
			// Migration cursors advance only under the source shard's writer
			// lock, so an owner confirmed inside a stable bracket, or under
			// the read lock, holds for the whole walk.
			if s.st().owner(key) != o {
				return errMoved
			}
			val, found, err = sh.kv.GetView(sh.view, key)
			return err
		})
		if err != errMoved {
			return val, found, err
		}
		// Ownership moved between the route decision and the walk (a
		// migration batch handed this key's bucket over, or the migration
		// committed). Re-route: the cursor only advances, so this loop
		// takes at most a couple of iterations.
	}
}

// scan walks every shard in shard order. A down shard fails the scan —
// serving a silently partial keyspace would be worse than an error the
// client can see and route around.
func (s *Server) scan(limit int) (pairs []uint64, err error) {
	st := s.st()
	for _, sh := range st.shards {
		if err = sh.down(); err != nil {
			return nil, err
		}
		if pairs, err = s.scanShard(st, sh, limit, pairs); err != nil {
			return nil, err
		}
		if limit > 0 && len(pairs)/2 >= limit {
			break
		}
	}
	return pairs, nil
}

// scanShard appends sh's pairs to pairs, up to limit in all.
func (s *Server) scanShard(st *routeState, sh *shard, limit int, pairs []uint64) ([]uint64, error) {
	base := len(pairs)
	err := s.read(sh, func() error {
		pairs = pairs[:base]
		return sh.kv.ScanRangeView(sh.view, 0, sh.kv.Buckets(), func(k, v uint64) bool {
			// Mid-migration a key can transiently exist at both its source
			// and its target (between the target insert and the source
			// delete of its batch). Ownership picks exactly one copy, so the
			// scan never shows duplicates or keys it should not.
			if st.rs != nil && st.owner(k) != sh.id {
				return true
			}
			pairs = append(pairs, k, v)
			return limit == 0 || len(pairs)/2 < limit
		})
	})
	return pairs, err
}

// runScrub runs one online media-scrub pass over every live shard —
// pool metadata mirrors and allocator checksums via pool.Scrub, then a
// full verified walk of each shard's store under its reader lock — and
// renders the aggregated findings with per-shard attributions, and the
// chains' shape the walk measured: the longest chain over every shard,
// and the mean 1-based position of a key in its chain (what a GET of a
// present key walks).
// Unrepairable damage leaves that shard's pool degraded (and the report
// says so); the pass itself never takes the server down.
func (s *Server) runScrub() string {
	shards := s.st().shards
	multi := len(shards) > 1
	prefix := func(id int) string {
		if !multi {
			return ""
		}
		return fmt.Sprintf("shard %d: ", id)
	}
	arenas, repairs, problems, quarantined := 0, 0, 0, 0
	var detail string
	storeIntegrity := "ok"
	var chains workloads.ChainStats
	degraded := false
	for _, sh := range shards {
		if err := sh.down(); err != nil {
			degraded = true
			detail += fmt.Sprintf("shard_down: %d %s\n", sh.id, oneLine(err.Error()))
			continue
		}
		rep, scrubErr := sh.pool.Scrub()
		var st workloads.ChainStats
		storeErr := sh.lock.read(sh.fail, func() (err error) {
			st, err = sh.kv.VerifyIntegrity()
			return err
		})
		chains.Keys += st.Keys
		chains.HitSum += st.HitSum
		chains.Longest = max(chains.Longest, st.Longest)
		arenas += rep.Arenas
		repairs += rep.Repairs
		problems += len(rep.Problems)
		for _, pr := range rep.Problems {
			detail += fmt.Sprintf("problem: %s%s\n", prefix(sh.id), oneLine(pr.String()))
		}
		if scrubErr != nil {
			detail += fmt.Sprintf("scrub_error: %s%s\n", prefix(sh.id), oneLine(scrubErr.Error()))
		}
		if storeErr != nil {
			s.m.corruptionErrs.Inc()
			if storeIntegrity == "ok" {
				storeIntegrity = prefix(sh.id) + oneLine(storeErr.Error())
			}
		}
		if sh.pool.Degraded() {
			degraded = true
			if why := sh.pool.DegradedReason(); why != "" {
				detail += fmt.Sprintf("degraded_reason: %s%s\n", prefix(sh.id), oneLine(why))
			}
		}
		q := sh.pool.Quarantine()
		quarantined += len(q)
		for _, r := range q {
			if multi {
				detail += fmt.Sprintf("quarantined: shard=%d off=%d len=%d\n", sh.id, r.Off, r.Len)
			} else {
				detail += fmt.Sprintf("quarantined: off=%d len=%d\n", r.Off, r.Len)
			}
		}
	}
	out := fmt.Sprintf("arenas_scrubbed: %d\nrepairs: %d\nproblems: %d\n", arenas, repairs, problems)
	out += fmt.Sprintf("store_integrity: %s\n", storeIntegrity)
	out += fmt.Sprintf("store_longest_chain: %d\nstore_mean_hit_pos: %.2f\n", chains.Longest, chains.MeanHit())
	out += fmt.Sprintf("degraded: %v\n", degraded)
	out += fmt.Sprintf("quarantined_ranges: %d\n", quarantined)
	out += detail
	return out
}

func (s *Server) renderInfo() string {
	var (
		sizeBytes, gen, rootOff   uint64
		journals, inUse           int
		rolledBack, rolledForward int
		heapInUse, heapFree       uint64
		quarantined, downCount    int
		degraded, generationSet   bool
	)
	var perShard string
	// The recovery timeline aggregates phase durations across shards in
	// first-seen order (phases differ by open path: fsck/repair only
	// appear when an image needed checking or healing).
	var recoveryOrder []string
	recoverySecs := make(map[string]float64)
	recoveryTotal := 0.0
	st := s.st()
	multi := len(st.shards) > 1
	for _, sh := range st.shards {
		if downErr := sh.down(); downErr != nil || sh.pool == nil {
			degraded = true
			downCount++
			if multi {
				why := "pool failed to open"
				if downErr != nil {
					why = oneLine(downErr.Error())
				}
				perShard += fmt.Sprintf("shard%d_down: %s\n", sh.id, why)
			}
			if sh.pool == nil {
				continue
			}
		}
		p := sh.pool
		sizeBytes += uint64(p.Device().Size())
		if !generationSet {
			gen, rootOff = p.Generation(), uint64(p.RootOff())
			generationSet = true
		}
		journals += p.Journals()
		inUse += p.Journals() - p.JournalsFree()
		rb, rf := p.Recovery()
		rolledBack += rb
		rolledForward += rf
		heapInUse += p.InUse()
		heapFree += p.FreeBytes()
		for _, phase := range p.RecoveryTimeline() {
			if _, seen := recoverySecs[phase.Name]; !seen {
				recoveryOrder = append(recoveryOrder, phase.Name)
			}
			recoverySecs[phase.Name] += phase.Seconds
			recoveryTotal += phase.Seconds
		}
		if p.Degraded() {
			degraded = true
		}
		quarantined += len(p.Quarantine())
		if multi {
			perShard += fmt.Sprintf(
				"shard%d_generation: %d\nshard%d_root_offset: %d\n"+
					"shard%d_journals_in_use: %d\nshard%d_recovery_rolled_back: %d\n"+
					"shard%d_recovery_rolled_forward: %d\nshard%d_degraded: %v\n",
				sh.id, p.Generation(), sh.id, p.RootOff(),
				sh.id, p.Journals()-p.JournalsFree(), sh.id, rb,
				sh.id, rf, sh.id, p.Degraded())
			perShard += fmt.Sprintf("shard%d_recovery_seconds_total: %.6f\n", sh.id, p.RecoverySeconds())
		}
	}
	recoveryLines := fmt.Sprintf("recovery_seconds_total: %.6f\n", recoveryTotal)
	for _, name := range recoveryOrder {
		recoveryLines += fmt.Sprintf("recovery_seconds_%s: %.6f\n", strings.ReplaceAll(name, "-", "_"), recoverySecs[name])
	}
	migLines := ""
	if rs := st.rs; rs != nil {
		oldN, newN := rs.Shape()
		moved, batches, frac := rs.Progress()
		migLines = fmt.Sprintf(
			"migration_active: true\nmigration_from_shards: %d\nmigration_to_shards: %d\n"+
				"migration_epoch: %d\nmigration_progress: %.4f\nmigration_moved_keys: %d\nmigration_batches: %d\n",
			oldN, newN, rs.Epoch(), frac, moved, batches)
	} else {
		migLines = "migration_active: false\n"
	}
	if err := s.MigrationError(); err != nil {
		migLines += fmt.Sprintf("migration_error: %s\n", oneLine(err.Error()))
	}
	if s.restoreWiped.Load() {
		migLines += "restore_wiped_at_boot: true\n"
	}
	replLines := s.renderInfoRepl()
	return fmt.Sprintf(
		"server: corundum-server\n"+
			"uptime_seconds: %d\n"+
			"shards: %d\n"+
			"shards_down: %d\n"+
			"pool_size_bytes: %d\n"+
			"pool_generation: %d\n"+
			"pool_root_offset: %d\n"+
			"journals: %d\n"+
			"journals_in_use: %d\n"+
			"recovery_rolled_back: %d\n"+
			"recovery_rolled_forward: %d\n"+
			"heap_in_use_bytes: %d\n"+
			"heap_free_bytes: %d\n"+
			"halted: %v\n"+
			"degraded: %v\n"+
			"quarantined_ranges: %d\n",
		int(time.Since(s.start).Seconds()),
		st.n,
		downCount,
		sizeBytes,
		gen,
		rootOff,
		journals,
		inUse,
		rolledBack, rolledForward,
		heapInUse,
		heapFree,
		s.halted.Load(),
		degraded,
		quarantined,
	) + recoveryLines + migLines + replLines + s.renderStoreShape() + perShard
}

// renderInfoRepl is INFO's replication block: role, lag, link health.
func (s *Server) renderInfoRepl() string {
	s.replMu.Lock()
	prim, rep := s.repl.primary, s.repl.replica
	s.replMu.Unlock()
	switch {
	case rep != nil:
		st := rep.Status()
		lag := rep.Lag()
		return fmt.Sprintf("repl_role: replica\nrepl_primary_addr: %s\nrepl_link_up: %v\n",
			st.Addr, st.Connected) + formatLag(lag)
	case prim != nil:
		st := prim.Status()
		return fmt.Sprintf("repl_role: primary\nrepl_epoch: %d\nrepl_connected_replicas: %d\n",
			s.replEpoch.Load(), st.Replicas) + formatLag(st.Lag)
	}
	return "repl_role: none\n"
}

func (s *Server) renderStats() string {
	var st pmem.Stats
	var batches, ops uint64
	var perShard string
	rst := s.st()
	multi := len(rst.shards) > 1
	for _, sh := range rst.shards {
		var shardFences uint64
		if sh.pool != nil {
			ds := sh.pool.Device().Stats()
			st.Writes += ds.Writes
			st.Flushes += ds.Flushes
			st.Fences += ds.Fences
			for sc := pmem.Scope(0); sc < pmem.NumScopes; sc++ {
				st.ByScope[sc].Fences += ds.ByScope[sc].Fences
			}
			shardFences = ds.Fences
		}
		var shardBatches, shardOps uint64
		if sh.b != nil {
			bs := sh.b.Stats()
			shardBatches = bs.Batches.Load()
			shardOps = bs.BatchedOps.Load()
			batches += shardBatches
			ops += shardOps
		}
		if multi {
			perShard += fmt.Sprintf("shard%d_batches_committed: %d\nshard%d_batched_ops: %d\nshard%d_pmem_fences: %d\n",
				sh.id, shardBatches, sh.id, shardOps, sh.id, shardFences)
		}
	}
	mean := 0.0
	if batches > 0 {
		mean = float64(ops) / float64(batches)
	}
	out := fmt.Sprintf(
		"ops_get: %d\nops_set: %d\nops_del: %d\nops_scan: %d\n"+
			"connections_total: %d\n"+
			"shards: %d\n"+
			"batches_committed: %d\nbatched_ops: %d\nmean_batch: %.2f\n",
		s.m.opsGet.Value(), s.m.opsSet.Value(), s.m.opsDel.Value(), s.m.opsScan.Value(),
		s.m.connsTotal.Value(),
		rst.n,
		batches, ops, mean,
	)
	out += fmt.Sprintf("reads_lockfree: %d\nread_retries: %d\nread_fallbacks: %d\n",
		s.m.readsLockFree.Value(), s.m.readRetries.Value(), s.m.readFallbacks.Value())
	for i, n := range s.m.batchSizes.BucketCounts() {
		out += fmt.Sprintf("batch_hist_%s: %d\n", batchSizeLabels[i], n)
	}
	out += fmt.Sprintf("pmem_writes: %d\npmem_flushes: %d\npmem_fences: %d\n",
		st.Writes, st.Flushes, st.Fences)
	for sc := pmem.Scope(0); sc < pmem.NumScopes; sc++ {
		out += fmt.Sprintf("pmem_fences_%s: %d\n", scopeKey(sc), st.ByScope[sc].Fences)
	}
	us := func(sec float64) float64 { return sec * 1e6 }
	hm := s.m.opSecondsMut
	out += fmt.Sprintf("lat_mutation_ops: %d\nlat_mutation_mean_us: %.1f\n"+
		"lat_mutation_p50_us: %.1f\nlat_mutation_p99_us: %.1f\nlat_mutation_p999_us: %.1f\n",
		hm.Count(), us(hm.Mean()), us(hm.Quantile(0.5)), us(hm.Quantile(0.99)), us(hm.Quantile(0.999)))
	hr := s.m.opSecondsRead
	out += fmt.Sprintf("lat_read_ops: %d\nlat_read_mean_us: %.1f\nlat_read_p50_us: %.1f\nlat_read_p99_us: %.1f\n",
		hr.Count(), us(hr.Mean()), us(hr.Quantile(0.5)), us(hr.Quantile(0.99)))
	for _, p := range s.m.mutationPhases() {
		out += fmt.Sprintf("phase_%s_mean_us: %.1f\nphase_%s_p50_us: %.1f\nphase_%s_p99_us: %.1f\n",
			p.Name, us(p.H.Mean()), p.Name, us(p.H.Quantile(0.5)), p.Name, us(p.H.Quantile(0.99)))
	}
	lag := s.ReplLag()
	out += formatLag(lag)
	return out + s.renderStoreShape() + perShard
}

// renderStoreShape is the STATS and INFO block on store shape: live keys
// and physical directory buckets, totals then per shard when sharded.
// Both are read from each store's published geometry, without a lock.
func (s *Server) renderStoreShape() string {
	st := s.st()
	var keys, buckets uint64
	var perShard string
	for _, sh := range st.shards {
		k, b := sh.shape()
		keys, buckets = keys+k, buckets+b
		if len(st.shards) > 1 {
			perShard += fmt.Sprintf("shard%d_store_keys: %d\nshard%d_store_buckets: %d\n", sh.id, k, sh.id, b)
		}
	}
	return fmt.Sprintf("store_keys: %d\nstore_buckets: %d\n", keys, buckets) + perShard
}

// Tracer exposes the server's op tracer (tests, embedding).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Response writers (RESP-like).

func writeOK(w io.Writer)  { io.WriteString(w, "+OK\r\n") }
func writeNil(w io.Writer) { io.WriteString(w, "$-1\r\n") }

// writeInt and writePair format straight into the writer's free buffer
// space: every GET hit, DEL ack and SCAN row passes through here, and
// fmt would box the integer and run its verb machine for each.
func writeInt(w *bufio.Writer, n uint64) {
	b := append(w.AvailableBuffer(), ':')
	b = strconv.AppendUint(b, n, 10)
	w.Write(append(b, '\r', '\n'))
}

func writePair(w *bufio.Writer, k, v uint64) {
	b := strconv.AppendUint(w.AvailableBuffer(), k, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, v, 10)
	w.Write(append(b, '\r', '\n'))
}

func writeErr(w io.Writer, err error) { fmt.Fprintf(w, "-ERR %s\r\n", oneLine(err.Error())) }

// writeReplyErr distinguishes the two machine-actionable refusals — the
// retryable journal-exhaustion condition (-BUSY, see client.Retry) and the
// read-only rejection (-READONLY: a degraded pool, or a down shard's
// keyspace slice) — from terminal -ERR replies, and counts detected
// media corruption surfacing through the read path.
func (s *Server) writeReplyErr(w io.Writer, err error) {
	var moved workloads.MovedError
	var redir replicaRedirectError
	switch {
	case errors.As(err, &moved):
		s.m.movedRejects.Inc()
		fmt.Fprintf(w, "-MOVED %d %s\r\n", moved.Shard, oneLine(err.Error()))
	// The replica redirect wraps ErrReadOnly, so it must be matched
	// before the generic read-only case: its reply leads with the
	// primary's address for clients to follow (see client.ReadonlyPrimary).
	case errors.As(err, &redir):
		s.m.readonlyRejects.Inc()
		fmt.Fprintf(w, "-READONLY %s\r\n", oneLine(err.Error()))
	case errors.Is(err, pool.ErrBusy):
		fmt.Fprintf(w, "-BUSY %s\r\n", oneLine(err.Error()))
	case errors.Is(err, pool.ErrReadOnly):
		s.m.readonlyRejects.Inc()
		fmt.Fprintf(w, "-READONLY %s\r\n", oneLine(err.Error()))
	case errors.Is(err, workloads.ErrDataCorrupt):
		s.m.corruptionErrs.Inc()
		writeErr(w, err)
	default:
		writeErr(w, err)
	}
}

func writeBulk(w io.Writer, body string) { fmt.Fprintf(w, "$%d\r\n%s\r\n", len(body), body) }

// oneLine keeps error messages protocol-safe.
func oneLine(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\r' || s[i] == '\n' {
			out = append(out, ' ')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}
