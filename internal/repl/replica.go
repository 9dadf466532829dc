package repl

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"corundum/internal/workloads"
)

// Host is the store side a Replica drives. The server implements it
// over its sharded pools; every method must be crash-atomic on its own.
type Host interface {
	// Cursor reads the durable replication cursor (both zero on a store
	// that has never replicated).
	Cursor() (epoch, seq uint64, err error)
	// ApplyFrame applies one delta frame's ops AND advances the durable
	// cursor to {epoch, seq}, such that a crash at any point leaves the
	// cursor naming exactly the frames whose effects are present.
	ApplyFrame(epoch, seq uint64, ops []workloads.Op) error
	// BeginBootstrap prepares a full resync: persist a wipe marker, zero
	// the cursor, wipe the keyspace. Re-entrant: a second Begin after a
	// crashed bootstrap re-wipes.
	BeginBootstrap() error
	// BootstrapChunk loads flat (key,value,...) pairs from the snapshot.
	BootstrapChunk(pairs []uint64) error
	// EndBootstrap commits the bootstrap: set the cursor to {epoch, seq}
	// and clear the wipe marker.
	EndBootstrap(epoch, seq uint64) error
	// AbortBootstrap abandons a failed bootstrap (the marker stays; the
	// next Begin — or a post-crash boot — re-wipes).
	AbortBootstrap()
	// Fatal reports an unrecoverable replication error (store failure).
	Fatal(err error)
}

// ReplicaConfig wires a Replica to its primary and host.
type ReplicaConfig struct {
	Addr string // primary's replication listener
	Host Host
	// Heartbeat must match the primary's cadence (default 500ms): the
	// read deadline is 6× it.
	Heartbeat time.Duration
	// BackoffBase/BackoffCap bound the capped-full-jitter reconnect
	// backoff (defaults 50ms / 2s).
	BackoffBase, BackoffCap time.Duration
	// Dial overrides net.DialTimeout in tests.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// ReplicaStatus is a snapshot of the link state for REPLINFO/metrics.
type ReplicaStatus struct {
	Addr          string
	Connected     bool
	Syncing       bool // snapshot bootstrap in progress
	Epoch         uint64
	AppliedSeq    uint64 // durable cursor after the last applied frame
	PrimarySeq    uint64 // primary's contiguous seq from the last heartbeat
	FullSyncs     uint64
	Reconnects    uint64
	CRCRejects    uint64
	FramesApplied uint64
	FramesDeduped uint64
	StaleOfPeer   bool  // primary refused us: our epoch is newer than its
	LastFrameNS   int64 // wall-clock of the last applied/deduped frame
	// PrimaryClientAddr is the client-facing address the primary
	// advertised in the handshake ("" when it did not) — what a replica's
	// -READONLY redirect should name.
	PrimaryClientAddr string
}

// Replica maintains the link to the primary: dial with capped-full-jitter
// backoff, SYNC handshake from the durable cursor, snapshot bootstrap
// when told to, then the delta tail — applying every frame crash-
// atomically and acking it. Any link or frame error drops the
// connection; the next handshake re-anchors at the cursor, deduplicating
// anything already applied.
type Replica struct {
	cfg ReplicaConfig

	mu      sync.Mutex
	st      ReplicaStatus
	conn    net.Conn
	stopped bool
	kick    bool
	done    chan struct{}
	wake    chan struct{}
}

// NewReplica starts replicating from cfg.Addr immediately.
func NewReplica(cfg ReplicaConfig) *Replica {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 2 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	r := &Replica{cfg: cfg, done: make(chan struct{}), wake: make(chan struct{}, 1)}
	r.st.Addr = cfg.Addr
	go r.run()
	return r
}

// Status snapshots the link state.
func (r *Replica) Status() ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// KickLink drops the current connection (test hook for link-cut chaos);
// the run loop reconnects with backoff.
func (r *Replica) KickLink() {
	r.mu.Lock()
	r.kick = true
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
}

// Stop tears the link down and waits for the loop to exit. The durable
// cursor keeps the resume point; a later NewReplica continues from it.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.stopped = true
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
	<-r.done
}

func (r *Replica) isStopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}

func (r *Replica) run() {
	defer close(r.done)
	attempt := 0
	for !r.isStopped() {
		err := r.session()
		if r.isStopped() {
			return
		}
		if err == nil {
			attempt = 0
			continue
		}
		// Capped full jitter: sleep U(0, min(cap, base·2^attempt)].
		window := r.cfg.BackoffBase << uint(attempt)
		if window > r.cfg.BackoffCap || window <= 0 {
			window = r.cfg.BackoffCap
		}
		if attempt < 20 {
			attempt++
		}
		d := time.Duration(rand.Int63n(int64(window))) + 1
		select {
		case <-r.wake:
		case <-time.After(d):
		}
	}
}

// session runs one connection lifetime: dial, handshake, bootstrap if
// told to, tail until the link breaks. A nil return means the link made
// progress (reset backoff).
func (r *Replica) session() error {
	epoch, seq, err := r.cfg.Host.Cursor()
	if err != nil {
		r.cfg.Host.Fatal(fmt.Errorf("repl: reading cursor: %w", err))
		r.mu.Lock()
		r.stopped = true
		r.mu.Unlock()
		return err
	}
	hb := r.cfg.Heartbeat

	conn, err := r.cfg.Dial(r.cfg.Addr, 4*hb)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		conn.Close()
		return errors.New("stopped")
	}
	r.conn = conn
	r.kick = false
	r.st.Connected = true
	r.st.Reconnects++
	r.mu.Unlock()
	defer func() {
		conn.Close()
		r.mu.Lock()
		r.conn = nil
		r.st.Connected = false
		r.st.Syncing = false
		r.mu.Unlock()
	}()

	bw := bufio.NewWriterSize(conn, 1<<16)
	br := bufio.NewReaderSize(conn, 1<<16)
	conn.SetWriteDeadline(time.Now().Add(4 * hb))
	if _, err := fmt.Fprintf(bw, "SYNC %d %d\n", epoch, seq); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(6 * hb))
	line, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	verdict := strings.TrimSpace(line)
	// Verdict shape: "+CONT <epoch> [clientaddr]" / "+FULL <epoch> [clientaddr]".
	noteAdvertise := func() {
		if f := strings.Fields(verdict); len(f) >= 3 {
			r.mu.Lock()
			r.st.PrimaryClientAddr = f[2]
			r.mu.Unlock()
		}
	}
	switch {
	case strings.HasPrefix(verdict, "+CONT "):
		var e uint64
		if _, err := fmt.Sscanf(verdict, "+CONT %d", &e); err != nil || e != epoch {
			return fmt.Errorf("repl: bad CONT verdict %q for epoch %d", verdict, epoch)
		}
		noteAdvertise()
		r.setEpoch(e)
		return r.tail(conn, br, bw, e, seq)
	case strings.HasPrefix(verdict, "+FULL "):
		var e uint64
		if _, err := fmt.Sscanf(verdict, "+FULL %d", &e); err != nil {
			return fmt.Errorf("repl: bad FULL verdict %q", verdict)
		}
		noteAdvertise()
		startSeq, err := r.bootstrap(conn, br, e)
		if err != nil {
			return err
		}
		r.setEpoch(e)
		return r.tail(conn, br, bw, e, startSeq)
	case strings.HasPrefix(verdict, "-STALE"):
		// The primary's epoch is BEHIND ours: it is the stale one (a
		// deposed primary we were pointed at). Keep retrying — it may be
		// re-synced and promoted — but flag the condition.
		r.mu.Lock()
		r.st.StaleOfPeer = true
		r.mu.Unlock()
		return errors.New(verdict)
	default:
		// -BUSY or garbage: back off and retry.
		return errors.New(verdict)
	}
}

func (r *Replica) setEpoch(e uint64) {
	r.mu.Lock()
	r.st.Epoch = e
	r.st.StaleOfPeer = false
	r.mu.Unlock()
}

// bootstrap consumes the snapshot stream: wipe, load chunks, commit the
// cursor at the snapshot's start sequence. Returns the sequence the tail
// continues from.
func (r *Replica) bootstrap(conn net.Conn, br *bufio.Reader, epoch uint64) (uint64, error) {
	r.mu.Lock()
	r.st.Syncing = true
	r.st.FullSyncs++
	r.mu.Unlock()
	hb := r.cfg.Heartbeat

	conn.SetReadDeadline(time.Now().Add(8 * hb))
	typ, words, err := ReadFrame(br)
	if err != nil {
		r.noteFrameErr(err)
		return 0, err
	}
	if typ != FrameSnapBegin || len(words) != 1 || words[0] != epoch {
		return 0, fmt.Errorf("%w: expected SnapBegin for epoch %d", ErrBadFrame, epoch)
	}
	if err := r.cfg.Host.BeginBootstrap(); err != nil {
		return 0, err
	}
	committed := false
	defer func() {
		if !committed {
			r.cfg.Host.AbortBootstrap()
		}
	}()
	for {
		conn.SetReadDeadline(time.Now().Add(8 * hb))
		typ, words, err := ReadFrame(br)
		if err != nil {
			r.noteFrameErr(err)
			return 0, err
		}
		switch typ {
		case FrameSnapChunk:
			if len(words) < 1 || uint64(len(words)) != 1+2*words[0] {
				return 0, fmt.Errorf("%w: malformed snapshot chunk", ErrBadFrame)
			}
			if err := r.cfg.Host.BootstrapChunk(words[1:]); err != nil {
				return 0, err
			}
		case FrameSnapEnd:
			if len(words) != 3 || words[0] != epoch {
				return 0, fmt.Errorf("%w: malformed snapshot end", ErrBadFrame)
			}
			startSeq := words[1]
			if err := r.cfg.Host.EndBootstrap(epoch, startSeq); err != nil {
				return 0, err
			}
			committed = true
			r.mu.Lock()
			r.st.Syncing = false
			r.st.AppliedSeq = startSeq
			r.mu.Unlock()
			return startSeq, nil
		default:
			return 0, fmt.Errorf("%w: unexpected frame type %d during bootstrap", ErrBadFrame, typ)
		}
	}
}

// tail applies the live delta stream from sequence cur (exclusive).
func (r *Replica) tail(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, epoch, cur uint64) error {
	hb := r.cfg.Heartbeat
	ack := func(seq uint64) error {
		conn.SetWriteDeadline(time.Now().Add(4 * hb))
		if _, err := fmt.Fprintf(bw, "ACK %d %d\n", epoch, seq); err != nil {
			return err
		}
		return bw.Flush()
	}
	// Progress (for backoff reset): at least one frame processed.
	progressed := false
	for {
		conn.SetReadDeadline(time.Now().Add(6 * hb))
		typ, words, err := ReadFrame(br)
		if err != nil {
			r.noteFrameErr(err)
			if progressed {
				return nil
			}
			return err
		}
		switch typ {
		case FrameHeartbeat:
			if len(words) != 2 {
				return fmt.Errorf("%w: malformed heartbeat", ErrBadFrame)
			}
			if words[0] != epoch {
				return fmt.Errorf("repl: primary switched epoch %d→%d mid-stream", epoch, words[0])
			}
			r.mu.Lock()
			r.st.PrimarySeq = words[1]
			r.mu.Unlock()
			if err := ack(cur); err != nil {
				return err
			}
		case FrameDelta:
			f, err := decodeDelta(words)
			if err != nil {
				r.noteFrameErr(err)
				return err
			}
			if f.Epoch != epoch {
				return fmt.Errorf("repl: delta from epoch %d on epoch-%d stream", f.Epoch, epoch)
			}
			switch {
			case f.Seq <= cur:
				// Duplicate of an already-applied frame (resend across a
				// reconnect): dedup, but still ack so the primary's lag
				// accounting advances.
				r.mu.Lock()
				r.st.FramesDeduped++
				r.st.LastFrameNS = time.Now().UnixNano()
				r.mu.Unlock()
			case f.Seq == cur+1:
				// Gap frames (nil ops) still go through ApplyFrame: the
				// durable cursor must advance over them.
				if err := r.cfg.Host.ApplyFrame(f.Epoch, f.Seq, f.Ops); err != nil {
					r.cfg.Host.Fatal(fmt.Errorf("repl: applying frame %d: %w", f.Seq, err))
					r.mu.Lock()
					r.stopped = true
					r.mu.Unlock()
					return err
				}
				cur = f.Seq
				progressed = true
				r.mu.Lock()
				r.st.AppliedSeq = cur
				r.st.FramesApplied++
				r.st.LastFrameNS = time.Now().UnixNano()
				if cur > r.st.PrimarySeq {
					r.st.PrimarySeq = cur
				}
				r.mu.Unlock()
			default:
				// Gap: the primary skipped ahead of our cursor. Should be
				// impossible (the log is dense); resync defensively.
				return fmt.Errorf("repl: stream gap: have %d, got %d", cur, f.Seq)
			}
			if err := ack(cur); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unexpected frame type %d in tail", ErrBadFrame, typ)
		}
	}
}

func (r *Replica) noteFrameErr(err error) {
	if errors.Is(err, ErrBadFrame) {
		r.mu.Lock()
		r.st.CRCRejects++
		r.mu.Unlock()
	}
}

// Lag computes the replica-side view of its lag in frames (primary's
// last advertised contiguous sequence minus the durable cursor) and
// seconds since the last frame activity.
func (r *Replica) Lag() Lag {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lag Lag
	if r.st.PrimarySeq > r.st.AppliedSeq {
		lag.Frames = r.st.PrimarySeq - r.st.AppliedSeq
	}
	if lag.Frames > 0 && r.st.LastFrameNS > 0 {
		lag.Seconds = float64(time.Now().UnixNano()-r.st.LastFrameNS) / 1e9
	}
	return lag
}
