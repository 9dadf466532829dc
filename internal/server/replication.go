package server

import (
	"fmt"
	"net"
	"sync"
	"time"

	"corundum/internal/pool"
	"corundum/internal/repl"
	"corundum/internal/workloads"
)

// This file wires internal/repl into the server: the change stream (one
// repl.Log fed by every shard's group-commit batcher while anything
// subscribes to it), its reader-side helper (snapshot: the replication
// source serves it to replicas over a dedicated listener, BACKUP writes
// it to a file), and the replica side (a repl.Replica driving this
// server's stores through the repl.Host interface — its full resync goes
// through the same keyspaceLoad as RESTORE — with mutations redirected to
// the primary).
//
// Durability split: the primary's stream sequence is durable because
// every batch commits through KVStore.ApplyWithCursor — the sequence
// rides the batch's own commit fence into that shard's cursor slot, so
// recovery (max cursor across shards) never reuses or skips a sequence.
// The replica's cursor lives on shard 0 only and advances LAST when a
// frame spans shards, so a crash mid-frame re-applies the whole frame
// idempotently rather than counting it done.

// replState groups the replication fields; guarded by Server.replMu
// except where noted.
type replState struct {
	// log is the server's change stream, attached to every batcher while
	// it has a subscriber: the replication source for as long as it
	// serves (durable: sequences ride into the shard cursors), a BACKUP
	// for as long as it runs. nil otherwise — batchers commit plainly.
	log     *repl.Log
	durable bool
	// Primary side.
	primary    *repl.Primary
	listenAddr string       // where the source serves (for re-listen on promote)
	pendingLn  net.Listener // listener handed over while still a replica
	// Replica side.
	replica *repl.Replica
	lastErr error
}

// replicaRedirectError is the refusal a replica answers mutations with:
// it renders as "-READONLY <primary-addr> ..." so clients (see
// client.ReadonlyPrimary) can follow the redirect.
type replicaRedirectError struct{ addr string }

func (e replicaRedirectError) Error() string {
	return fmt.Sprintf("%s replica; send mutations to the primary", e.addr)
}
func (e replicaRedirectError) Unwrap() error { return pool.ErrReadOnly }

// errNotReplica refuses PROMOTE on a server that is not a replica.
var errNotReplica = fmt.Errorf("not a replica (see REPLICAOF)")

// EnableReplicationSource serves the replication stream on ln. On a
// primary the source starts immediately: the durable epoch and last
// sequence are recovered from the shard cursors, every shard's batcher
// is attached to the stream, and replicas may connect. On a
// server currently in the replica role the listener is parked and the
// source starts when PROMOTE makes this node the primary.
func (s *Server) EnableReplicationSource(ln net.Listener) error {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.repl.primary != nil || s.repl.pendingLn != nil {
		return fmt.Errorf("replication source already enabled")
	}
	s.repl.listenAddr = ln.Addr().String()
	if s.repl.replica != nil {
		s.repl.pendingLn = ln
		return nil
	}
	return s.startSourceLocked(ln)
}

// startSourceLocked recovers the durable stream position and starts the
// primary. Caller holds replMu.
func (s *Server) startSourceLocked(ln net.Listener) error {
	epoch, lastSeq, err := s.recoverStreamPos()
	if err != nil {
		ln.Close()
		return err
	}
	s.replEpoch.Store(epoch)
	log := repl.NewLog(lastSeq, s.opts.ReplLogFrames, replLogBytes)
	s.setStreamLocked(log, true)
	s.repl.primary = repl.NewPrimary(ln, repl.PrimaryConfig{
		Log:       log,
		Epoch:     s.replEpoch.Load,
		Snapshot:  func() (*repl.Snapshot, error) { return s.replSnapshot(log) },
		Heartbeat: s.opts.ReplHeartbeat,
		Advertise: s.clientAddr,
	})
	return nil
}

// clientAddr is this server's client-facing listen address ("" before
// Serve): what replicas advertise in their -READONLY redirects.
func (s *Server) clientAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.listeners) > 0 {
		return s.listeners[0].Addr().String()
	}
	return ""
}

// replicaRefusal is what a replica answers mutations and admin verbs
// with, nil when not a replica: the redirect to the primary's advertised
// client address once the SYNC handshake has carried one, and until then
// a retryable -BUSY naming no address — the configured replication
// address does not speak the client protocol, so it is never offered.
func (s *Server) replicaRefusal() error {
	if s.primaryAddrStr() == "" {
		return nil
	}
	s.replMu.Lock()
	rep := s.repl.replica
	s.replMu.Unlock()
	if rep != nil {
		if a := rep.Status().PrimaryClientAddr; a != "" {
			return replicaRedirectError{addr: a}
		}
	}
	return fmt.Errorf("%w: replica: primary address not yet known", pool.ErrBusy)
}

// recoverStreamPos reads the durable replication position: epoch and
// sequence are each the max across shard cursors (a batch's sequence is
// durable on the shard that committed it; epoch history rides along).
// A store that never replicated reports {1, 0}.
func (s *Server) recoverStreamPos() (epoch, lastSeq uint64, err error) {
	for _, sh := range s.st().shards {
		if sh.kv == nil || sh.down() != nil {
			continue
		}
		sh.lock.RLock()
		e, q, rerr := sh.kv.ReadReplCursor()
		sh.lock.RUnlock()
		if rerr != nil {
			return 0, 0, fmt.Errorf("repl: cursor on shard %d: %w", sh.id, rerr)
		}
		if e > epoch {
			epoch = e
		}
		if q > lastSeq {
			lastSeq = q
		}
	}
	if epoch == 0 {
		epoch = 1
	}
	return epoch, lastSeq, nil
}

// setStreamLocked makes log the server's change stream: from its next
// batch on, every shard's committer reserves, commits and publishes
// through it (see changeStream), or — log nil — commits plainly again. A
// stream already attached is closed first, waking every reader waiting
// on it with ErrLogClosed: that is how a BACKUP learns that the source
// started under its own stream, or that the node was demoted under it.
// Caller holds replMu.
func (s *Server) setStreamLocked(log *repl.Log, durable bool) {
	if s.repl.log != nil {
		s.repl.log.Close()
	}
	s.repl.log, s.repl.durable = log, durable
	for _, sh := range s.allShards() {
		s.attachShardLocked(sh)
	}
}

// subscribeLocked returns the attached stream for a reader in this
// process, attaching a non-durable one (own: the caller takes it away
// again) when nothing else feeds one. Caller holds replMu.
func (s *Server) subscribeLocked() (log *repl.Log, own bool) {
	if own = s.repl.log == nil; own {
		s.setStreamLocked(repl.NewLog(0, s.opts.ReplLogFrames, replLogBytes), false)
	}
	return s.repl.log, own
}

// attachShardLocked points sh's batcher at the current stream (or at
// none). Caller holds replMu.
func (s *Server) attachShardLocked(sh *shard) {
	if sh.b == nil {
		return
	}
	var cs *changeStream
	if s.repl.log != nil {
		cs = &changeStream{log: s.repl.log, epoch: &s.replEpoch, shard: sh.id, durable: s.repl.durable}
	}
	sh.b.stream.Store(cs)
}

// allShards copies the every-shard-ever list.
func (s *Server) allShards() []*shard {
	s.allMu.Lock()
	defer s.allMu.Unlock()
	return append([]*shard(nil), s.all...)
}

// snapshot is a claimed consistent view of the whole keyspace: the one
// reader-side helper of the change stream, under the replication
// source's bootstrap and under BACKUP.
//
// The snapshot contract, stated here once: the base walk from a pin,
// plus the stream's frames above the pin up to the highest sequence
// RESERVED when the walk ended, is the store at that sequence. Every
// frame at or below the pin was published, so committed, before the
// walk began and is in the stores it reads. A batch reserves its
// sequence inside the shard lock before it touches the store, so any
// batch a walk window could see — wholly: the window is read under the
// read lock, or inside a seqlock bracket no writer crossed, which is the
// same — has a sequence no higher than the one read after the walk; and
// per shard, so per key, sequence order is commit order, so replaying
// those frames over the base in stream order (idempotent sets and
// deletes) lands every key on its value at that sequence. The walk
// takes no lock beyond each window's read lock, and no journal slot. A
// replica keeps replaying past that sequence, which only moves it
// forward; BACKUP waits for the frames up to it (Pin.Through) and stops
// there.
type snapshot struct {
	s       *Server
	what    string // error prefix
	st      *routeState
	log     *repl.Log
	pin     *repl.Pin
	release func() // unpin, drop the admin slot; must always be called, once is enough
}

// snapshot claims one. It takes the exclusive admin slot under the name
// op (a snapshot must not interleave with RESHARD's direct store writes,
// or with another snapshot or load). The source passes its own log and
// gets a capped pin, as a slow replica should. A nil log means a local
// sink: it subscribes to whatever stream is attached — attaching one of
// its own, non-durable and gone again at release, when nothing else
// feeds one — and its pin holds the whole tail.
func (s *Server) snapshot(op, what string, log *repl.Log) (*snapshot, error) {
	if err := s.beginAdmin(op); err != nil {
		return nil, err
	}
	st := s.st()
	for i := 0; i < st.n; i++ {
		if err := st.shards[i].down(); err != nil {
			s.endAdmin()
			return nil, fmt.Errorf("%s: shard %d: %w", what, i, err)
		}
	}
	sn := &snapshot{s: s, what: what, st: st, log: log}
	own := false
	if log != nil {
		sn.pin = log.Pin()
	} else {
		s.replMu.Lock()
		sn.log, own = s.subscribeLocked()
		sn.pin = sn.log.Hold()
		s.replMu.Unlock()
	}
	var once sync.Once
	sn.release = func() {
		once.Do(func() {
			sn.pin.Release()
			if own {
				s.replMu.Lock()
				if s.repl.log == sn.log {
					s.setStreamLocked(nil, false)
				}
				s.replMu.Unlock()
			}
			s.endAdmin()
		})
	}
	return sn, nil
}

// walk streams the keyspace through chunk as flat (key,value,...) pairs,
// one bucket window of one shard at a time, each read under that shard's
// read lock. It returns the number of keys.
func (sn *snapshot) walk(chunk func(shard int, pairs []uint64) error) (keys uint64, err error) {
	s := sn.s
	for i := 0; i < sn.st.n; i++ {
		sh := sn.st.shards[i]
		nb := sh.kv.Buckets()
		for lo := uint64(0); lo < nb; lo += backupScanBuckets {
			pairs, err := sn.scan(sh, lo, min(lo+backupScanBuckets, nb))
			if err != nil {
				return keys, fmt.Errorf("%s: walking shard %d: %w", sn.what, i, err)
			}
			if s.backupChunkHook != nil {
				s.backupChunkHook(i, lo)
			}
			if len(pairs) == 0 {
				continue
			}
			if err := chunk(i, pairs); err != nil {
				return keys, err
			}
			keys += uint64(len(pairs) / 2)
		}
	}
	return keys, nil
}

// scan reads one bucket window of sh, inside a bracket no writer crossed
// or under the read lock (read).
func (sn *snapshot) scan(sh *shard, lo, hi uint64) (pairs []uint64, err error) {
	err = sn.s.read(sh, func() error {
		pairs = pairs[:0]
		return sh.kv.ScanRangeView(sh.view, lo, hi, func(k, v uint64) bool {
			pairs = append(pairs, k, v)
			return true
		})
	})
	return pairs, err
}

// replSnapshot hands a snapshot of the source's stream to a
// bootstrapping replica's link.
func (s *Server) replSnapshot(log *repl.Log) (*repl.Snapshot, error) {
	sn, err := s.snapshot("REPLSNAPSHOT", "repl: snapshot", log)
	if err != nil {
		return nil, err
	}
	return &repl.Snapshot{
		StartSeq: sn.pin.Seq,
		Walk: func(chunk func(pairs []uint64) error) (uint64, error) {
			return sn.walk(func(_ int, pairs []uint64) error { return chunk(pairs) })
		},
		Release: sn.release,
	}, nil
}

// ReplicaOf enters the replica role: mutations start answering
// "-READONLY <addr>", RESHARD/RESTORE/BACKUP are refused, and a
// repl.Replica begins syncing this server's stores from the primary at
// addr (snapshot bootstrap if needed, then the live tail). An empty addr
// means "REPLICAOF NO ONE", which is PROMOTE.
func (s *Server) ReplicaOf(addr string) error {
	if addr == "" {
		return s.Promote()
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.repl.replica != nil {
		if s.primaryAddrStr() == addr {
			return nil
		}
		return fmt.Errorf("already a replica of %s; REPLICAOF NO ONE first", s.primaryAddrStr())
	}
	if s.st().rs != nil {
		return fmt.Errorf("%w: migration in progress", pool.ErrBusy)
	}
	// A serving primary being demoted stops its source first: a stale
	// primary must not keep feeding downstream replicas. The stream ends
	// with the role whoever fed it — a BACKUP reading it fails, retryably,
	// rather than finish a file whose tail nobody is writing any more.
	if s.repl.primary != nil {
		s.repl.primary.Close()
		s.repl.primary = nil
	}
	s.setStreamLocked(nil, false)
	a := addr
	s.primaryAddr.Store(&a)
	s.repl.lastErr = nil
	s.repl.replica = repl.NewReplica(repl.ReplicaConfig{
		Addr:      addr,
		Host:      &replHost{s: s},
		Heartbeat: s.opts.ReplHeartbeat,
	})
	return nil
}

// Promote performs failover on a replica: stop the sync loop, durably
// bump the replication epoch (the commit point — a crash before it
// leaves the node a replica, after it a primary), leave the read-only
// role, and — when a replication listener was configured — start serving
// the stream to new replicas at the new epoch. The deposed primary's
// next SYNC carries the old epoch and is answered with a full resync.
func (s *Server) Promote() error {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.repl.replica == nil {
		return errNotReplica
	}
	if s.replLoading.Load() {
		return fmt.Errorf("%w: snapshot bootstrap in progress; PROMOTE would lose the keyspace", pool.ErrBusy)
	}
	rep := s.repl.replica
	rep.Stop()
	sh0 := s.st().shards[0]
	if err := sh0.writable(); err != nil {
		// Can't persist the epoch bump: stay a (stopped) replica.
		s.repl.replica = nil
		s.primaryAddr.Store(nil)
		return fmt.Errorf("promote: shard 0: %w", err)
	}
	sh0.lock.RLock()
	epoch, seq, err := sh0.kv.ReadReplCursor()
	sh0.lock.RUnlock()
	if err != nil {
		return fmt.Errorf("promote: reading cursor: %w", err)
	}
	newEpoch := epoch + 1
	err = sh0.lock.write(sh0.fail, func() error { return sh0.kv.WriteReplCursor(newEpoch, seq) })
	if err != nil {
		return fmt.Errorf("promote: bumping epoch: %w", err)
	}
	s.repl.replica = nil
	s.primaryAddr.Store(nil)
	s.replEpoch.Store(newEpoch)

	if ln := s.repl.pendingLn; ln != nil {
		s.repl.pendingLn = nil
		if err := s.startSourceLocked(ln); err != nil {
			return fmt.Errorf("promote: starting replication source: %w", err)
		}
	} else if s.repl.listenAddr != "" && s.repl.primary == nil {
		ln, err := net.Listen("tcp", s.repl.listenAddr)
		if err != nil {
			return fmt.Errorf("promote: re-listening on %s: %w", s.repl.listenAddr, err)
		}
		if err := s.startSourceLocked(ln); err != nil {
			return fmt.Errorf("promote: starting replication source: %w", err)
		}
	}
	return nil
}

// primaryAddrStr is the primary's client address while in the replica
// role, "" otherwise. Lock-free: the mutation path checks it per run.
func (s *Server) primaryAddrStr() string {
	if p := s.primaryAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// IsReplica reports whether the server is in the replica role.
func (s *Server) IsReplica() bool { return s.primaryAddrStr() != "" }

// ReplicaStatus exposes the replica link state (zero when not a replica).
func (s *Server) ReplicaStatus() repl.ReplicaStatus {
	s.replMu.Lock()
	rep := s.repl.replica
	s.replMu.Unlock()
	if rep == nil {
		return repl.ReplicaStatus{}
	}
	return rep.Status()
}

// ReplPrimaryStatus exposes the source-side state (zero when the source
// is not serving).
func (s *Server) ReplPrimaryStatus() (repl.PrimaryStatus, bool) {
	s.replMu.Lock()
	prim := s.repl.primary
	s.replMu.Unlock()
	if prim == nil {
		return repl.PrimaryStatus{}, false
	}
	return prim.Status(), true
}

// ReplLag is the worst replication lag visible from this node: on a
// primary, the furthest-behind connected replica; on a replica, its own
// distance behind the primary's last advertised sequence.
func (s *Server) ReplLag() repl.Lag {
	s.replMu.Lock()
	prim, rep := s.repl.primary, s.repl.replica
	s.replMu.Unlock()
	switch {
	case rep != nil:
		return rep.Lag()
	case prim != nil:
		return prim.Status().Lag
	}
	return repl.Lag{}
}

// ReplKickLink drops the replica's current connection (chaos/test
// hook); the link loop reconnects with backoff and resumes from the
// durable cursor. No-op when not a replica.
func (s *Server) ReplKickLink() {
	s.replMu.Lock()
	rep := s.repl.replica
	s.replMu.Unlock()
	if rep != nil {
		rep.KickLink()
	}
}

// ReplDrain blocks until every connected replica has acknowledged the
// full stream (or the timeout passes). No-op without a serving source.
func (s *Server) ReplDrain(timeout time.Duration) error {
	s.replMu.Lock()
	prim := s.repl.primary
	s.replMu.Unlock()
	if prim == nil {
		return nil
	}
	return prim.Drain(timeout)
}

// closeReplication tears both roles down; called from Close after the
// batchers stop (so every committed batch is published) — the Drain
// before Close is what leaves replicas at zero lag on graceful shutdown.
func (s *Server) closeReplication() {
	s.replMu.Lock()
	prim, rep, log := s.repl.primary, s.repl.replica, s.repl.log
	pending := s.repl.pendingLn
	s.repl.primary, s.repl.replica, s.repl.pendingLn = nil, nil, nil
	s.replMu.Unlock()
	if rep != nil {
		rep.Stop()
	}
	if prim != nil {
		prim.Drain(replDrainTimeout)
		prim.Close()
	}
	if log != nil {
		log.Close()
	}
	if pending != nil {
		pending.Close()
	}
}

func (s *Server) setReplErr(err error) {
	s.replMu.Lock()
	s.repl.lastErr = err
	s.replMu.Unlock()
}

// renderReplInfo is the REPLINFO reply: role, cursor/epoch state, link
// health, and lag, as "name: value" lines.
func (s *Server) renderReplInfo() string {
	s.replMu.Lock()
	prim, rep := s.repl.primary, s.repl.replica
	lastErr := s.repl.lastErr
	s.replMu.Unlock()
	role := "none"
	if rep != nil {
		role = "replica"
	} else if prim != nil {
		role = "primary"
	}
	out := fmt.Sprintf("repl_role: %s\n", role)
	epoch, seq, err := s.cursorSnapshot()
	if err == nil {
		out += fmt.Sprintf("repl_cursor_epoch: %d\nrepl_cursor_seq: %d\n", epoch, seq)
	}
	if prim != nil {
		st := prim.Status()
		log := s.repl.log
		out += fmt.Sprintf("repl_epoch: %d\nrepl_last_seq: %d\nrepl_contiguous_seq: %d\n",
			s.replEpoch.Load(), log.LastSeq(), log.Contiguous())
		out += fmt.Sprintf("repl_connected_replicas: %d\nrepl_full_syncs: %d\nrepl_partial_syncs: %d\n"+
			"repl_stale_rejections: %d\nrepl_frames_sent: %d\n",
			st.Replicas, st.FullSyncs, st.ContSyncs, st.StaleRejs, st.FramesSent)
		out += formatLag(st.Lag)
	}
	if rep != nil {
		st := rep.Status()
		out += fmt.Sprintf("repl_primary_addr: %s\nrepl_link: %s\nrepl_epoch: %d\n"+
			"repl_applied_seq: %d\nrepl_primary_seq: %d\n",
			st.Addr, linkState(st), st.Epoch, st.AppliedSeq, st.PrimarySeq)
		out += fmt.Sprintf("repl_full_syncs: %d\nrepl_reconnects: %d\nrepl_crc_rejects: %d\n"+
			"repl_frames_applied: %d\nrepl_frames_deduped: %d\n",
			st.FullSyncs, st.Reconnects, st.CRCRejects, st.FramesApplied, st.FramesDeduped)
		out += formatLag(rep.Lag())
	}
	if s.replLoading.Load() {
		out += "repl_bootstrap_loading: true\n"
	}
	if lastErr != nil {
		out += fmt.Sprintf("repl_last_error: %s\n", oneLine(lastErr.Error()))
	}
	return out
}

func formatLag(l repl.Lag) string {
	return fmt.Sprintf("repl_lag_frames: %d\nrepl_lag_bytes: %d\nrepl_lag_seconds: %.3f\n",
		l.Frames, l.Bytes, l.Seconds)
}

func linkState(st repl.ReplicaStatus) string {
	switch {
	case st.Syncing:
		return "syncing"
	case st.Connected:
		return "connected"
	case st.StaleOfPeer:
		return "refused-stale-primary"
	default:
		return "connecting"
	}
}

// cursorSnapshot reads shard 0's durable cursor (the replica-side
// resume point).
func (s *Server) cursorSnapshot() (epoch, seq uint64, err error) {
	sh0 := s.st().shards[0]
	if sh0.kv == nil || sh0.down() != nil {
		return 0, 0, fmt.Errorf("shard 0 down")
	}
	sh0.lock.RLock()
	defer sh0.lock.RUnlock()
	return sh0.kv.ReadReplCursor()
}

// ---- repl.Host: the store side the replica link drives ----

// replHost adapts the server to repl.Host. Methods are called from the
// replica's link goroutine only (one at a time).
type replHost struct {
	s    *Server
	load *keyspaceLoad // the bootstrap in flight, between Begin and End/Abort
}

func (h *replHost) Cursor() (uint64, uint64, error) { return h.s.cursorSnapshot() }

// ApplyFrame applies one stream frame: ops are routed by THIS server's
// layout (primary and replica may shard differently), non-shard-0 groups
// commit as plain transactions first, and the shard-0 group commits
// fused with the cursor advance LAST — so a crash at any point leaves
// the cursor behind and the whole frame re-applies idempotently.
func (h *replHost) ApplyFrame(epoch, seq uint64, ops []workloads.Op) error {
	s := h.s
	st := s.st()
	if st.rs != nil {
		// A boot-resumed migration is rearranging buckets with direct
		// store writes; route by the live cursor-refined owner and
		// re-check under each shard's lock (applyOpsOwned), then advance
		// the cursor separately.
		if err := s.applyOpsOwned(ops); err != nil {
			return err
		}
		sh0 := st.shards[0]
		return sh0.lock.write(sh0.fail, func() error { return sh0.kv.WriteReplCursor(epoch, seq) })
	}
	groups := make([][]workloads.Op, st.n)
	for _, op := range ops {
		si := workloads.ShardFor(op.Key, st.n)
		groups[si] = append(groups[si], op)
	}
	for si := st.n - 1; si >= 1; si-- {
		if len(groups[si]) == 0 {
			continue
		}
		if err := s.applyOnShard(st.shards[si], groups[si]); err != nil {
			return err
		}
	}
	sh0 := st.shards[0]
	if err := sh0.writable(); err != nil {
		return err
	}
	return s.onStore(sh0, func(kv *workloads.KVStore) error {
		_, err := kv.ApplyWithCursor(groups[0], epoch, seq)
		return err
	})
}

// onStore runs fn on sh's store as one writer section (storeLock.write).
func (s *Server) onStore(sh *shard, fn func(kv *workloads.KVStore) error) error {
	return sh.lock.write(sh.fail, func() error { return fn(sh.kv) })
}

// applyOnShard commits ops on sh in one failure-atomic transaction.
func (s *Server) applyOnShard(sh *shard, ops []workloads.Op) error {
	if err := sh.writable(); err != nil {
		return err
	}
	return s.onStore(sh, func(kv *workloads.KVStore) error {
		_, err := kv.Apply(ops)
		return err
	})
}

// applyOpsOwned routes each op by the current (migration-refined) owner
// and re-checks ownership under the owning shard's write lock — the
// write-side analogue of get's re-routing loop. Ops whose bucket
// moved between routing and locking are re-routed; cursors only
// advance, so this terminates.
func (s *Server) applyOpsOwned(ops []workloads.Op) error {
	rest := ops
	for len(rest) > 0 {
		st := s.st()
		si := st.owner(rest[0].Key)
		sh := st.shards[si]
		var mine, other []workloads.Op
		for _, op := range rest {
			if st.owner(op.Key) == si {
				mine = append(mine, op)
			} else {
				other = append(other, op)
			}
		}
		if err := sh.writable(); err != nil {
			return err
		}
		stable := true
		applyErr := sh.lock.write(sh.fail, func() error {
			cur := s.st()
			for _, op := range mine {
				if cur.owner(op.Key) != si {
					stable = false
					return nil
				}
			}
			_, err := sh.kv.Apply(mine)
			return err
		})
		if applyErr != nil {
			return applyErr
		}
		if !stable {
			continue // ownership moved under us; re-route everything
		}
		rest = other
	}
	return nil
}

// BeginBootstrap prepares a full resync: claim the exclusive admin slot
// (held until End/Abort — a bootstrap must not interleave with
// RESHARD/BACKUP/RESTORE) and begin a replica keyspaceLoad, which drains,
// marks, zeroes every cursor and wipes. Reads answer -BUSY until the
// bootstrap commits.
func (h *replHost) BeginBootstrap() error {
	if err := h.s.beginAdmin("REPLSYNC"); err != nil {
		return err
	}
	load, err := h.s.beginLoad("repl: bootstrap", true)
	if err != nil {
		h.s.endAdmin()
		return err
	}
	h.load = load
	return nil
}

// BootstrapChunk loads snapshot pairs, routed by this server's layout.
func (h *replHost) BootstrapChunk(pairs []uint64) error {
	ops := make([]workloads.Op, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		ops = append(ops, workloads.Op{Key: pairs[i], Val: pairs[i+1]})
	}
	return h.load.apply(ops)
}

// EndBootstrap commits the resync with the cursor at the snapshot's
// position: a crash before the commit re-wipes and re-bootstraps; after
// it, the replica resumes from {epoch, seq}.
func (h *replHost) EndBootstrap(epoch, seq uint64) error {
	defer h.s.endAdmin()
	return h.load.commit(epoch, seq)
}

// AbortBootstrap abandons a failed resync. The wipe marker stays and
// replLoading stays true: the store holds a partial snapshot, so reads
// keep answering -BUSY until a retried bootstrap commits (or a restart
// wipes at boot).
func (h *replHost) AbortBootstrap() {
	h.s.endAdmin()
}

// Fatal records an unrecoverable replication error (surfaced in
// REPLINFO/INFO); the link loop has already stopped itself.
func (h *replHost) Fatal(err error) {
	h.s.setReplErr(err)
}
