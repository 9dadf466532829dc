package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"corundum/internal/pool"
	"corundum/internal/repl"
	"corundum/internal/workloads"
)

// BACKUP and RESTORE are the file-shaped ends of the server's one
// snapshot+delta pipeline (replication.go holds the other ends): BACKUP
// is a replica that writes a file — it claims a snapshot of the change
// stream, writes the walk as base frames and the stream's tail as delta
// frames — and RESTORE is a bootstrap that reads one, through the same
// keyspace loader a replica's full resync uses.
//
// A backup file is a magic string followed by CRC-framed chunks:
//
//	"CRDBKP01"
//	[u32 type][u32 len][payload...][u32 crc32(type||len||payload)] ...
//
// all integers little-endian, payloads built of 8-byte words — the
// replication link's framing, written and read by the one codec
// (repl.WriteFrame / repl.ReadFrame). Frame
// types: header {version, shards, epoch}; base {shard, count, count ×
// (key,val)} — the chunked store walk; delta {shard, count, count ×
// (flags,key,val)} — mutations committed while the walk ran, in commit
// order (flags bit 0 = delete); shard-end {shard, baseKeys}; footer
// {baseKeys, deltaOps, shards}. Every frame is fsync'd before the next
// begins, so a crash mid-backup leaves a verifiable prefix: each frame
// either reads back CRC-clean or the file ends, never a silent blend.
// A file without its footer is an incomplete backup and RESTORE refuses
// it.
//
// Consistency is the snapshot contract, stated once on snapshot
// (replication.go): base frames plus delta frames are the store at one
// stream position. No shard lock is taken beyond the walk's per-window
// read locks.

const backupMagic = "CRDBKP01"

const backupVersion = 1

// Frame types.
const (
	frameHeader   = 1
	frameBase     = 2
	frameDelta    = 3
	frameShardEnd = 4
	frameFooter   = 5
)

// backupScanBuckets is how many directory buckets one base chunk's read
// lock covers; backupChunkPairs caps pairs per frame, which keeps the
// largest frame (a delta chunk: 2+3×1024 words, 24 KiB) far below the
// codec's 16 MiB payload bound.
const (
	backupScanBuckets = 256
	backupChunkPairs  = 1024
)

const deltaFlagDel = 1

// errAdminBusy wraps pool.ErrBusy so replies surface as -BUSY: the
// refused mutation (or conflicting admin command) never ran and can be
// retried.
var errAdminBusy = fmt.Errorf("%w: restore in progress", pool.ErrBusy)

// BackupReport summarizes a completed BACKUP.
type BackupReport struct {
	Path     string
	Shards   int
	Epoch    uint64
	BaseKeys uint64
	DeltaOps uint64
}

// RestoreReport summarizes a completed RESTORE.
type RestoreReport struct {
	Path     string
	Shards   int // shard count recorded in the backup (may differ from serving layout)
	Epoch    uint64
	BaseKeys uint64
	DeltaOps uint64
}

// beginAdmin claims the exclusive admin slot (BACKUP, RESTORE, and
// RESHARD exclude each other; concurrent data traffic is fine). It also
// refuses while a migration is moving keys: the migration writes stores
// directly, invisible to the change stream a snapshot's delta relies on.
func (s *Server) beginAdmin(op string) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if s.adminOp != "" {
		return fmt.Errorf("%w: %s in progress", pool.ErrBusy, s.adminOp)
	}
	if s.st().rs != nil {
		return fmt.Errorf("%w: migration in progress", pool.ErrBusy)
	}
	s.adminOp = op
	return nil
}

func (s *Server) endAdmin() {
	s.migMu.Lock()
	s.adminOp = ""
	s.migMu.Unlock()
}

// frameWriter writes CRC-framed chunks, fsyncing at every frame boundary
// so the on-disk prefix is always verifiable.
type frameWriter struct {
	f *os.File
	w *bufio.Writer
}

func (fw *frameWriter) frame(typ uint32, words ...uint64) error {
	if err := repl.WriteFrame(fw.w, typ, words); err != nil {
		return err
	}
	if err := fw.w.Flush(); err != nil {
		return err
	}
	return fw.f.Sync()
}

// Backup streams a consistent snapshot of the whole keyspace to path
// while the server keeps serving reads AND writes. See the file comment
// for the format.
func (s *Server) Backup(path string) (BackupReport, error) {
	// Refused on a replica: its writes arrive through ApplyFrame, not the
	// batchers that feed the stream, so the delta tail would miss them.
	// Back up the primary.
	if err := s.replicaRefusal(); err != nil {
		return BackupReport{}, err
	}
	sn, err := s.snapshot("BACKUP", "backup", nil)
	if err != nil {
		return BackupReport{}, err
	}
	defer sn.release()
	st := sn.st
	_, cfgEpoch, err := st.shards[0].kv.ReadConfig()
	if err != nil {
		return BackupReport{}, fmt.Errorf("backup: reading config: %w", err)
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return BackupReport{}, fmt.Errorf("backup: %w", err)
	}
	defer f.Close()
	fw := &frameWriter{f: f, w: bufio.NewWriter(f)}
	if _, err := fw.w.WriteString(backupMagic); err != nil {
		return BackupReport{}, err
	}
	if err := fw.frame(frameHeader, backupVersion, uint64(st.n), cfgEpoch); err != nil {
		return BackupReport{}, fmt.Errorf("backup: writing header: %w", err)
	}

	// Base: the walk, each shard's chunks closed by its shard-end frame
	// (written when the walk moves on, so empty shards get theirs too).
	shardKeys := make([]uint64, st.n)
	ended := 0
	endShards := func(upto int) error {
		for ; ended < upto; ended++ {
			if err := fw.frame(frameShardEnd, uint64(ended), shardKeys[ended]); err != nil {
				return fmt.Errorf("backup: writing shard %d end: %w", ended, err)
			}
		}
		return nil
	}
	totalKeys, err := sn.walk(func(i int, pairs []uint64) error {
		if err := endShards(i); err != nil {
			return err
		}
		for len(pairs) > 0 {
			n := min(len(pairs)/2, backupChunkPairs)
			words := append([]uint64{uint64(i), uint64(n)}, pairs[:2*n]...)
			if err := fw.frame(frameBase, words...); err != nil {
				return fmt.Errorf("backup: writing shard %d chunk: %w", i, err)
			}
			pairs = pairs[2*n:]
			shardKeys[i] += uint64(n)
		}
		return nil
	})
	if err == nil {
		err = endShards(st.n)
	}
	if err != nil {
		return BackupReport{}, err
	}

	// Delta: the stream's frames from the pin to the snapshot point. They
	// go out grouped by shard; a key lives on one shard and a shard's
	// frames keep their order, so per key this is still commit order.
	frames, err := sn.pin.Through(sn.log.LastSeq())
	if err != nil {
		return BackupReport{}, fmt.Errorf("%w: backup: the change stream ended under the walk (%v); the file is incomplete, run BACKUP again", pool.ErrBusy, err)
	}
	deltas := make([][]workloads.Op, st.n)
	for _, fr := range frames {
		deltas[fr.Shard] = append(deltas[fr.Shard], fr.Ops...)
	}
	var totalDeltas uint64
	for i, ops := range deltas {
		for len(ops) > 0 {
			n := min(len(ops), backupChunkPairs)
			words := make([]uint64, 0, 2+3*n)
			words = append(words, uint64(i), uint64(n))
			for _, op := range ops[:n] {
				var flags uint64
				if op.Del {
					flags = deltaFlagDel
				}
				words = append(words, flags, op.Key, op.Val)
			}
			if err := fw.frame(frameDelta, words...); err != nil {
				return BackupReport{}, fmt.Errorf("backup: writing shard %d delta: %w", i, err)
			}
			ops = ops[n:]
			totalDeltas += uint64(n)
		}
	}

	if err := fw.frame(frameFooter, totalKeys, totalDeltas, uint64(st.n)); err != nil {
		return BackupReport{}, fmt.Errorf("backup: writing footer: %w", err)
	}
	return BackupReport{Path: path, Shards: st.n, Epoch: cfgEpoch, BaseKeys: totalKeys, DeltaOps: totalDeltas}, nil
}

// SetBackupChunkHook installs test instrumentation run after every
// BACKUP scan chunk and every replication-snapshot walk chunk (shard
// id, first bucket of the window) — tests use it to interleave
// mutations or admin commands with a walk deterministically. Must be
// set before Serve; nil in production.
func (s *Server) SetBackupChunkHook(fn func(shard int, bucket uint64)) { s.backupChunkHook = fn }

// backupSummary is what pass-1 validation learns about a backup file.
type backupSummary struct {
	shards   int
	epoch    uint64
	baseKeys uint64
	deltaOps uint64
}

// validateBackup reads a whole backup, checking the magic, every frame
// CRC, the frame grammar, the per-shard and total counts, and the
// footer's presence. It is RESTORE's pass 1: nothing touches a pool
// until the entire file has proven intact — a truncated or bit-flipped
// backup is rejected here, loudly, with the pools untouched. Shard ids
// and per-frame counts are outside input: both are bounded before use
// (a count of 1<<63 would otherwise wrap the payload-length check).
func validateBackup(in io.Reader) (*backupSummary, error) {
	r := bufio.NewReaderSize(in, 1<<20)
	magic := make([]byte, len(backupMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != backupMagic {
		return nil, fmt.Errorf("not a corundum backup (bad magic)")
	}
	sum := &backupSummary{}
	var (
		sawHeader, sawFooter bool
		baseSeen             = map[uint64]uint64{} // shard -> keys counted
		frameNo              int
	)
	// chunk vets a base or delta frame: {shard, n, n × perOp words}.
	chunk := func(kind string, w []uint64, perOp uint64) error {
		switch {
		case !sawHeader || len(w) < 2:
			return fmt.Errorf("frame %d: malformed %s chunk", frameNo, kind)
		case w[0] >= uint64(sum.shards):
			return fmt.Errorf("frame %d: %s chunk names shard %d of %d", frameNo, kind, w[0], sum.shards)
		case w[1] > backupChunkPairs || uint64(len(w)) != 2+perOp*w[1]:
			return fmt.Errorf("frame %d: %s chunk count %d does not match payload", frameNo, kind, w[1])
		}
		return nil
	}
	for {
		typ, w, err := repl.ReadFrame(r)
		if err == io.EOF {
			break
		}
		frameNo++
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", frameNo, err)
		}
		if sawFooter {
			return nil, fmt.Errorf("frame %d: data after footer", frameNo)
		}
		switch typ {
		case frameHeader:
			if sawHeader || len(w) != 3 {
				return nil, fmt.Errorf("frame %d: malformed header", frameNo)
			}
			if v := w[0]; v != backupVersion {
				return nil, fmt.Errorf("unsupported backup version %d", v)
			}
			if w[1] < 1 || w[1] > 1<<16 {
				return nil, fmt.Errorf("backup claims %d shards", w[1])
			}
			sum.shards, sum.epoch = int(w[1]), w[2]
			sawHeader = true
		case frameBase:
			if err := chunk("base", w, 2); err != nil {
				return nil, err
			}
			baseSeen[w[0]] += w[1]
			sum.baseKeys += w[1]
		case frameDelta:
			if err := chunk("delta", w, 3); err != nil {
				return nil, err
			}
			sum.deltaOps += w[1]
		case frameShardEnd:
			if !sawHeader || len(w) != 2 || w[0] >= uint64(sum.shards) {
				return nil, fmt.Errorf("frame %d: malformed shard-end", frameNo)
			}
			if got := baseSeen[w[0]]; got != w[1] {
				return nil, fmt.Errorf("shard %d: chunks hold %d keys, shard-end says %d", w[0], got, w[1])
			}
		case frameFooter:
			if !sawHeader || len(w) != 3 {
				return nil, fmt.Errorf("frame %d: malformed footer", frameNo)
			}
			if w[0] != sum.baseKeys || w[1] != sum.deltaOps || w[2] != uint64(sum.shards) {
				return nil, fmt.Errorf("footer totals (%d keys, %d deltas, %d shards) do not match frames (%d, %d, %d)",
					w[0], w[1], w[2], sum.baseKeys, sum.deltaOps, sum.shards)
			}
			sawFooter = true
		default:
			return nil, fmt.Errorf("frame %d: unknown type %d", frameNo, typ)
		}
	}
	if !sawHeader {
		return nil, errors.New("backup holds no header frame")
	}
	if !sawFooter {
		return nil, errors.New("backup is incomplete (no footer frame — truncated mid-backup?)")
	}
	return sum, nil
}

// Restore replaces the server's entire keyspace with the snapshot in
// path. Two passes: pass 1 validates the whole file without touching any
// pool (a damaged backup is rejected with the stores intact); pass 2
// feeds the file — base chunks first, then deltas in commit order, so
// replay reproduces the snapshot exactly — to a keyspaceLoad, which
// routes by the CURRENT layout (a backup taken at a different shard count
// restores fine) and carries the crash protocol. Mutations during the
// restore answer -BUSY; reads keep serving (they observe the wipe and
// refill).
func (s *Server) Restore(path string) (RestoreReport, error) {
	// A replica's keyspace is owned by the stream; RESTORE would diverge
	// it from the primary irrecoverably.
	if err := s.replicaRefusal(); err != nil {
		return RestoreReport{}, err
	}
	if err := s.beginAdmin("RESTORE"); err != nil {
		return RestoreReport{}, err
	}
	defer s.endAdmin()

	f, err := os.Open(path)
	if err != nil {
		return RestoreReport{}, fmt.Errorf("restore: rejecting %s: %w", path, err)
	}
	defer f.Close()
	sum, err := validateBackup(f)
	if err != nil {
		return RestoreReport{}, fmt.Errorf("restore: rejecting %s: %w", path, err)
	}
	if _, err := f.Seek(int64(len(backupMagic)), io.SeekStart); err != nil {
		return RestoreReport{}, fmt.Errorf("restore: %w", err)
	}

	// Fence all mutations; the load drains what was already queued.
	for _, sh := range s.st().shards {
		if sh.b != nil {
			sh.b.SetFence(func(workloads.Op) error { return errAdminBusy })
			defer s.installOwnershipVet(sh)
		}
	}
	load, err := s.beginLoad("restore", false)
	if err != nil {
		return RestoreReport{}, err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var ops []workloads.Op
	for {
		typ, w, err := repl.ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return RestoreReport{}, fmt.Errorf("restore: file changed after validation: %w", err)
		}
		ops = ops[:0]
		switch typ {
		case frameBase:
			for k := 2; k+1 < len(w); k += 2 {
				ops = append(ops, workloads.Op{Key: w[k], Val: w[k+1]})
			}
		case frameDelta:
			for k := 2; k+2 < len(w); k += 3 {
				ops = append(ops, workloads.Op{Del: w[k]&deltaFlagDel != 0, Key: w[k+1], Val: w[k+2]})
			}
		}
		if err := load.apply(ops); err != nil {
			return RestoreReport{}, err
		}
	}
	if err := load.commit(0, 0); err != nil {
		return RestoreReport{}, err
	}
	return RestoreReport{Path: path, Shards: sum.shards, Epoch: sum.epoch,
		BaseKeys: sum.baseKeys, DeltaOps: sum.deltaOps}, nil
}

// keyspaceLoad replaces the server's whole keyspace, and is the only
// code that does: RESTORE feeds it a backup file, a replica's full
// resync (replHost) feeds it the primary's snapshot. One crash protocol
// serves both — a durable ManifestRestore marker on shard 0 before the
// first destructive write, every shard wiped, the new contents applied
// in bounded failure-atomic chunks routed by the serving layout, then
// the config-epoch bump that makes the marker stale (the commit point)
// and the marker's clear. A crash anywhere between marker and commit is
// detected at the next boot, which wipes the half-written pools rather
// than serving a blend (workloads.RecoverBoot). Every store call runs
// under onStore, so a power cut inside any of them fails that shard
// instead of the process. The caller holds the admin slot throughout.
type keyspaceLoad struct {
	s        *Server
	what     string // error prefix
	st       *routeState
	cfgEpoch uint64
	// replica marks a replication bootstrap: reads answer -BUSY while the
	// load runs (replLoading), every shard's cursor is zeroed with the
	// wipe — so a stale {epoch, seq} can never claim an empty store is
	// caught up — and commit sets shard 0's cursor to the snapshot's
	// position. RESTORE leaves cursors alone.
	replica bool
}

// beginLoad drains the batchers, writes the marker and wipes. It is
// re-entrant across a failed load: a second begin re-wipes.
func (s *Server) beginLoad(what string, replica bool) (*keyspaceLoad, error) {
	l := &keyspaceLoad{s: s, what: what, st: s.st(), replica: replica}
	for i, sh := range l.st.shards[:l.st.n] {
		if err := sh.writable(); err != nil {
			return nil, fmt.Errorf("%s: shard %d: %w", what, i, err)
		}
	}
	for i, sh := range l.st.shards[:l.st.n] {
		if err := sh.b.Barrier(); err != nil {
			return nil, fmt.Errorf("%s: draining shard %d: %w", what, i, err)
		}
	}
	if replica {
		s.replLoading.Store(true)
	}
	n := uint64(l.st.n)
	err := s.onStore(l.st.shards[0], func(kv *workloads.KVStore) (err error) {
		if _, l.cfgEpoch, err = kv.ReadConfig(); err != nil {
			return fmt.Errorf("reading config: %w", err)
		}
		return kv.WriteManifest(&workloads.Manifest{
			Kind: workloads.ManifestRestore, Epoch: l.cfgEpoch + 1, OldN: n, NewN: n,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("%s: writing restore marker: %w", what, err)
	}
	// Point of no return: from here until commit the pools are a work in
	// progress and the marker guarantees a crash wipes them.
	for i, sh := range l.st.shards[:l.st.n] {
		err := s.onStore(sh, func(kv *workloads.KVStore) error {
			if replica {
				if err := kv.WriteReplCursor(0, 0); err != nil {
					return err
				}
			}
			return kv.Wipe()
		})
		if err != nil {
			return nil, fmt.Errorf("%s: wiping shard %d: %w", what, i, err)
		}
	}
	return l, nil
}

// apply loads one chunk, in order, each op on the shard that serves its
// key now.
func (l *keyspaceLoad) apply(ops []workloads.Op) error {
	groups := make([][]workloads.Op, l.st.n)
	for _, op := range ops {
		si := workloads.ShardFor(op.Key, l.st.n)
		groups[si] = append(groups[si], op)
	}
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := l.s.applyOnShard(l.st.shards[si], g); err != nil {
			return fmt.Errorf("%s: loading shard %d: %w", l.what, si, err)
		}
	}
	return nil
}

// commit ends the load: a replica's cursor first, then the epoch bump —
// a crash before it re-wipes at boot, after it the new keyspace (and, on
// a replica, its resume point) stands — then cleanup a crash would redo.
func (l *keyspaceLoad) commit(epoch, seq uint64) error {
	err := l.s.onStore(l.st.shards[0], func(kv *workloads.KVStore) error {
		if l.replica {
			if err := kv.WriteReplCursor(epoch, seq); err != nil {
				return fmt.Errorf("cursor: %w", err)
			}
		}
		if err := kv.WriteConfig(l.st.n, l.cfgEpoch+1); err != nil {
			return err
		}
		if err := kv.ClearManifest(); err != nil {
			return fmt.Errorf("clearing restore marker: %w", err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: committing: %w", l.what, err)
	}
	if l.replica {
		l.s.replLoading.Store(false)
	}
	return nil
}
