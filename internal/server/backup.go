package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"corundum/internal/pool"
	"corundum/internal/repl"
	"corundum/internal/workloads"
)

// Streaming BACKUP/RESTORE rides the same machinery as live resharding:
// the batcher tap gives a commit-ordered delta stream, the shard locks
// give clean cut points, and the restore marker (a ManifestRestore in
// shard 0's meta slot) makes a crashed RESTORE detectable at boot.
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
// Consistency: taps are installed on every shard before the walk starts,
// so any mutation the walk missed is in some delta frame; a mutation
// captured by both (committed between its bucket's scan and the tap
// install is impossible — the tap is installed first — but a batch can
// land in base AND delta when its commit straddles the install) replays
// idempotently. The walk ends by taking every shard's write lock at
// once, draining the taps, and removing them: one instant — the snapshot
// point — at which the base+delta stream is exactly the store state.

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
// directly, invisible to the batcher taps a backup relies on.
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
// for the format and the consistency argument.
func (s *Server) Backup(path string) (BackupReport, error) {
	// Refused on a replica: BACKUP's delta phase taps the batchers, but a
	// replica's writes arrive through ApplyFrame (no batcher), so the tap
	// would miss them and the backup would be torn. Back up the primary.
	if err := s.replicaRefusal(); err != nil {
		return BackupReport{}, err
	}
	if err := s.beginAdmin("BACKUP"); err != nil {
		return BackupReport{}, err
	}
	defer s.endAdmin()
	st := s.st()
	for i := 0; i < st.n; i++ {
		if err := st.shards[i].down(); err != nil {
			return BackupReport{}, fmt.Errorf("backup: shard %d: %w", i, err)
		}
	}
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

	// Tap every shard before any scanning: from here on, no committed
	// mutation can escape both the walk and the delta stream.
	type deltaBuf struct {
		mu  sync.Mutex
		ops []workloads.Op
	}
	bufs := make([]*deltaBuf, st.n)
	for i := 0; i < st.n; i++ {
		b := &deltaBuf{}
		bufs[i] = b
		if bt := st.shards[i].b; bt != nil {
			bt.SetTap(func(ops []workloads.Op) {
				b.mu.Lock()
				b.ops = append(b.ops, ops...)
				b.mu.Unlock()
			})
		}
	}
	removeTaps := func() {
		for i := 0; i < st.n; i++ {
			if bt := st.shards[i].b; bt != nil {
				bt.SetTap(nil)
			}
		}
	}
	defer removeTaps()

	var totalKeys uint64
	for i := 0; i < st.n; i++ {
		sh := st.shards[i]
		var shardKeys uint64
		nb := sh.kv.Buckets()
		for lo := uint64(0); lo < nb; lo += backupScanBuckets {
			hi := lo + backupScanBuckets
			if hi > nb {
				hi = nb
			}
			pairs, err := s.backupScanChunk(sh, lo, hi)
			if err != nil {
				return BackupReport{}, fmt.Errorf("backup: scanning shard %d: %w", i, err)
			}
			if s.backupChunkHook != nil {
				s.backupChunkHook(i, lo)
			}
			for len(pairs) > 0 {
				n := len(pairs) / 2
				if n > backupChunkPairs {
					n = backupChunkPairs
				}
				words := append([]uint64{uint64(i), uint64(n)}, pairs[:2*n]...)
				if err := fw.frame(frameBase, words...); err != nil {
					return BackupReport{}, fmt.Errorf("backup: writing shard %d chunk: %w", i, err)
				}
				pairs = pairs[2*n:]
				shardKeys += uint64(n)
			}
		}
		if err := fw.frame(frameShardEnd, uint64(i), shardKeys); err != nil {
			return BackupReport{}, err
		}
		totalKeys += shardKeys
	}

	// Snapshot point: all write locks at once, drain and remove the taps.
	// Every batch committed before this instant is in base or delta; none
	// after it can be.
	deltas := make([][]workloads.Op, st.n)
	for i := 0; i < st.n; i++ {
		st.shards[i].lock.Lock()
	}
	for i := 0; i < st.n; i++ {
		bufs[i].mu.Lock()
		deltas[i] = bufs[i].ops
		bufs[i].mu.Unlock()
		if bt := st.shards[i].b; bt != nil {
			bt.SetTap(nil)
		}
	}
	for i := st.n - 1; i >= 0; i-- {
		st.shards[i].lock.Unlock()
	}

	var totalDeltas uint64
	for i, ops := range deltas {
		for len(ops) > 0 {
			n := len(ops)
			if n > backupChunkPairs {
				n = backupChunkPairs
			}
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

// backupScanChunk reads one bucket window under the shard's read lock.
func (s *Server) backupScanChunk(sh *shard, lo, hi uint64) (pairs []uint64, err error) {
	defer s.recoverShardFailure(sh, &err)
	sh.lock.RLock()
	defer sh.lock.RUnlock()
	err = sh.kv.ScanRange(lo, hi, func(k, v uint64) bool {
		pairs = append(pairs, k, v)
		return true
	})
	return pairs, err
}

// backupSummary is what pass-1 validation learns about a backup file.
type backupSummary struct {
	shards   int
	epoch    uint64
	baseKeys uint64
	deltaOps uint64
}

// validateBackup reads the whole file, checking the magic, every frame
// CRC, the per-shard and total counts, and the footer's presence. It is
// RESTORE's pass 1: nothing touches a pool until the entire file has
// proven intact — a truncated or bit-flipped backup is rejected here,
// loudly, with the pools untouched.
func validateBackup(path string) (*backupSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
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
		words := len(w)
		switch typ {
		case frameHeader:
			if sawHeader || words != 3 {
				return nil, fmt.Errorf("frame %d: malformed header", frameNo)
			}
			if v := w[0]; v != backupVersion {
				return nil, fmt.Errorf("unsupported backup version %d", v)
			}
			sum.shards, sum.epoch = int(w[1]), w[2]
			if sum.shards < 1 || sum.shards > 1<<16 {
				return nil, fmt.Errorf("backup claims %d shards", sum.shards)
			}
			sawHeader = true
		case frameBase:
			if !sawHeader || words < 2 {
				return nil, fmt.Errorf("frame %d: malformed base chunk", frameNo)
			}
			n := w[1]
			if uint64(words) != 2+2*n {
				return nil, fmt.Errorf("frame %d: base chunk count %d does not match payload", frameNo, n)
			}
			baseSeen[w[0]] += n
			sum.baseKeys += n
		case frameDelta:
			if !sawHeader || words < 2 {
				return nil, fmt.Errorf("frame %d: malformed delta chunk", frameNo)
			}
			n := w[1]
			if uint64(words) != 2+3*n {
				return nil, fmt.Errorf("frame %d: delta chunk count %d does not match payload", frameNo, n)
			}
			sum.deltaOps += n
		case frameShardEnd:
			if !sawHeader || words != 2 {
				return nil, fmt.Errorf("frame %d: malformed shard-end", frameNo)
			}
			if got := baseSeen[w[0]]; got != w[1] {
				return nil, fmt.Errorf("shard %d: chunks hold %d keys, shard-end says %d", w[0], got, w[1])
			}
		case frameFooter:
			if !sawHeader || words != 3 {
				return nil, fmt.Errorf("frame %d: malformed footer", frameNo)
			}
			if w[0] != sum.baseKeys || w[1] != sum.deltaOps || int(w[2]) != sum.shards {
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
// writes the durable restore marker, wipes every shard, and applies the
// snapshot routed by the CURRENT layout (a backup taken at a different
// shard count restores fine). The config-epoch bump at the end is the
// commit point; a crash anywhere between marker and commit is detected
// at next boot, which wipes the half-written pools rather than serving
// a blend (see adoptPersistentState). Mutations during the restore
// answer -BUSY; reads keep serving (they observe the wipe and refill).
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
	st := s.st()
	for i := 0; i < st.n; i++ {
		if err := st.shards[i].writable(); err != nil {
			return RestoreReport{}, fmt.Errorf("restore: shard %d: %w", i, err)
		}
	}

	sum, err := validateBackup(path)
	if err != nil {
		return RestoreReport{}, fmt.Errorf("restore: rejecting %s: %w", path, err)
	}

	// Fence all mutations, then drain what was already queued.
	for i := 0; i < st.n; i++ {
		if sh := st.shards[i]; sh.b != nil {
			sh.b.SetFence(func(workloads.Op) error { return errAdminBusy })
			defer s.installOwnershipVet(sh)
		}
	}
	for i := 0; i < st.n; i++ {
		if bt := st.shards[i].b; bt != nil {
			if err := bt.Barrier(); err != nil {
				return RestoreReport{}, fmt.Errorf("restore: draining shard %d: %w", i, err)
			}
		}
	}

	sh0 := st.shards[0]
	_, cfgEpoch, err := sh0.kv.ReadConfig()
	if err != nil {
		return RestoreReport{}, fmt.Errorf("restore: reading config: %w", err)
	}
	marker := &workloads.Manifest{
		Kind: workloads.ManifestRestore, Epoch: cfgEpoch + 1,
		OldN: uint64(st.n), NewN: uint64(st.n),
	}
	sh0.lock.Lock()
	err = sh0.kv.WriteManifest(marker)
	sh0.lock.Unlock()
	if err != nil {
		return RestoreReport{}, fmt.Errorf("restore: writing restore marker: %w", err)
	}

	// Point of no return: from here until the commit below, the pools are
	// a work in progress and the marker guarantees a crash wipes them.
	for i := 0; i < st.n; i++ {
		sh := st.shards[i]
		sh.lock.Lock()
		err := wipeStore(sh.kv)
		sh.lock.Unlock()
		if err != nil {
			return RestoreReport{}, fmt.Errorf("restore: wiping shard %d: %w", i, err)
		}
	}

	if err := s.restoreApply(path, st); err != nil {
		return RestoreReport{}, err
	}

	// Commit: the epoch bump makes the marker stale; clearing it is
	// cleanup a crash would redo at boot.
	sh0.lock.Lock()
	err = sh0.kv.WriteConfig(st.n, cfgEpoch+1)
	sh0.lock.Unlock()
	if err != nil {
		return RestoreReport{}, fmt.Errorf("restore: committing: %w", err)
	}
	sh0.lock.Lock()
	err = sh0.kv.ClearManifest()
	sh0.lock.Unlock()
	if err != nil {
		return RestoreReport{}, fmt.Errorf("restore: clearing restore marker: %w", err)
	}
	return RestoreReport{Path: path, Shards: sum.shards, Epoch: sum.epoch,
		BaseKeys: sum.baseKeys, DeltaOps: sum.deltaOps}, nil
}

// restoreApply is RESTORE's pass 2: stream the (already fully validated)
// file again, routing every op to its CURRENT shard home and applying in
// file order — base chunks first, then deltas in commit order, so replay
// reproduces the snapshot exactly — in bounded failure-atomic chunks.
func (s *Server) restoreApply(path string, st *routeState) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	if _, err := io.ReadFull(r, make([]byte, len(backupMagic))); err != nil {
		return fmt.Errorf("restore: %w", err)
	}

	pending := make([][]workloads.Op, st.n)
	flush := func(i int) error {
		if len(pending[i]) == 0 {
			return nil
		}
		sh := st.shards[i]
		sh.lock.Lock()
		_, err := sh.kv.Apply(pending[i])
		sh.lock.Unlock()
		pending[i] = pending[i][:0]
		return err
	}
	add := func(op workloads.Op) error {
		i := workloads.ShardFor(op.Key, st.n)
		pending[i] = append(pending[i], op)
		if len(pending[i]) >= 512 {
			return flush(i)
		}
		return nil
	}
	for {
		typ, w, err := repl.ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("restore: file changed after validation: %w", err)
		}
		switch typ {
		case frameBase:
			n := int(w[1])
			for k := 0; k < n; k++ {
				if err := add(workloads.Op{Key: w[2+2*k], Val: w[3+2*k]}); err != nil {
					return fmt.Errorf("restore: applying base chunk: %w", err)
				}
			}
		case frameDelta:
			n := int(w[1])
			for k := 0; k < n; k++ {
				op := workloads.Op{
					Del: w[2+3*k]&deltaFlagDel != 0,
					Key: w[3+3*k],
					Val: w[4+3*k],
				}
				if err := add(op); err != nil {
					return fmt.Errorf("restore: applying delta chunk: %w", err)
				}
			}
		}
	}
	for i := 0; i < st.n; i++ {
		if err := flush(i); err != nil {
			return fmt.Errorf("restore: applying to shard %d: %w", i, err)
		}
	}
	return nil
}
