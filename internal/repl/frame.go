// Package repl implements crash-consistent primary→replica streaming
// replication for corundum-server.
//
// The primary publishes every committed group-commit batch into an
// in-memory Log as a sequence-numbered frame (the sequence is made
// durable by riding each batch's own commit fence — see
// workloads.ApplyWithCursor) and ships the frames over TCP to any
// number of replicas. A replica applies each frame as one failure-atomic
// transaction fused with its durable replication cursor {epoch, seq},
// so after a crash on either side the stream resumes exactly at the
// cursor: frames at or below it are deduplicated, the frame above it is
// re-applied idempotently, and nothing is ever half-applied.
//
// Wire protocol, in connection order:
//
//	replica → primary:  "SYNC <epoch> <seq>\n"     (its durable cursor)
//	primary → replica:  "+CONT <epoch>\n"          resume from seq+1
//	                    "+FULL <epoch>\n"          snapshot bootstrap follows
//	                    "-STALE <epoch>\n"         caller's epoch is newer; refuse
//	                    "-BUSY <reason>\n"         snapshot slot busy; retry
//
// then binary CRC frames (same [type][len][payload][crc32] framing as
// the BACKUP file format, integers little-endian, payloads of 8-byte
// words) flow primary→replica:
//
//	FrameDelta     {epoch, seq, shard, count, count×(flags,key,val)}
//	FrameHeartbeat {epoch, contiguousSeq}
//	FrameSnapBegin {epoch}
//	FrameSnapChunk {count, count×(key,val)}
//	FrameSnapEnd   {epoch, startSeq, baseKeys}
//
// while the replica sends "ACK <epoch> <seq>\n" text lines back on the
// same connection (after every applied frame and every heartbeat), which
// the primary uses for lag accounting, graceful-shutdown draining, and
// liveness. A CRC mismatch on either side drops the connection; the
// reconnect handshake re-anchors at the durable cursor, so a corrupt
// frame can delay replication but never corrupt a store.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"corundum/internal/crc"
	"corundum/internal/workloads"
)

// Frame types on the replication link.
const (
	FrameDelta     = 1
	FrameHeartbeat = 2
	FrameSnapBegin = 3
	FrameSnapChunk = 4
	FrameSnapEnd   = 5
)

// deltaFlagDel marks a delete in a delta frame's per-op flags word.
const deltaFlagDel = 1

// maxFramePayload bounds a frame's claimed payload so a corrupt length
// word cannot drive an unbounded allocation.
const maxFramePayload = 16 << 20

// ErrBadFrame reports a frame that failed its CRC or shape check. The
// link must be dropped; resume re-anchors at the durable cursor.
var ErrBadFrame = errors.New("repl: corrupt frame")

// Frame is one commit-ordered entry of the replication stream. Ops is
// nil for a gap frame (a reserved sequence whose batch failed to commit;
// replicas advance their cursor over it without touching the store).
type Frame struct {
	Epoch uint64
	Seq   uint64
	Shard int
	Ops   []workloads.Op
	// WallNS stamps publication time (lag_seconds); Bytes is the wire
	// size (lag_bytes). Both are bookkeeping, not shipped.
	WallNS int64
	Bytes  int
}

// WireSize is the frame's on-the-wire byte count (header + payload + crc).
func (f *Frame) WireSize() int { return 8 + 8*(4+3*len(f.Ops)) + 4 }

// WriteFrame emits one CRC frame to w. Callers flush w themselves (a
// sender batches several frames per flush). It streams the frame into
// w's own buffer, checksumming as it goes, so it builds no payload and
// allocates nothing.
func WriteFrame(w *bufio.Writer, typ uint32, words []uint64) error {
	sum, err := putLE(w, 0, uint64(8*len(words))<<32|uint64(typ), 8)
	for i := 0; err == nil && i < len(words); i++ {
		sum, err = putLE(w, sum, words[i], 8)
	}
	if err == nil {
		_, err = putLE(w, 0, uint64(sum), 4)
	}
	return err
}

// putLE writes the low n bytes of x, little-endian, into w's buffer and
// returns sum updated over them.
func putLE(w *bufio.Writer, sum uint32, x uint64, n int) (uint32, error) {
	if w.Available() < n {
		if err := w.Flush(); err != nil {
			return sum, err
		}
	}
	b := binary.LittleEndian.AppendUint64(w.AvailableBuffer(), x)[:n]
	_, err := w.Write(b)
	return crc.Update(sum, b), err
}

// ReadFrame reads one CRC frame from r. A checksum or shape failure
// returns an error wrapping ErrBadFrame; io.EOF at a frame boundary is
// returned as io.EOF. It reads through r's own buffer, checksumming as it
// goes, so the words it returns are its only allocation.
func ReadFrame(r *bufio.Reader) (typ uint32, words []uint64, err error) {
	hdr, sum, err := getLE(r, 0, 8)
	if err == io.EOF {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, err)
	}
	typ, n := uint32(hdr), uint32(hdr>>32)
	if n > maxFramePayload || n%8 != 0 {
		return 0, nil, fmt.Errorf("%w: payload length %d", ErrBadFrame, n)
	}
	words = make([]uint64, n/8)
	for i := range words {
		if words[i], sum, err = getLE(r, sum, 8); err != nil {
			return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
		}
	}
	tail, _, err := getLE(r, 0, 4)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: truncated checksum: %v", ErrBadFrame, err)
	}
	if uint32(tail) != sum {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	return typ, words, nil
}

// getLE reads n bytes, little-endian, from r's buffer and returns them
// with sum updated over them. It reports io.EOF when r holds none of them
// and io.ErrUnexpectedEOF when it holds only some.
func getLE(r *bufio.Reader, sum uint32, n int) (uint64, uint32, error) {
	b, err := r.Peek(n)
	if len(b) < n {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, sum, err
	}
	var le [8]byte
	copy(le[:], b)
	sum = crc.Update(sum, b)
	_, err = r.Discard(n)
	return binary.LittleEndian.Uint64(le[:]), sum, err
}

// deltaWords encodes a delta frame's payload.
func deltaWords(f Frame) []uint64 {
	words := make([]uint64, 0, 4+3*len(f.Ops))
	words = append(words, f.Epoch, f.Seq, uint64(f.Shard), uint64(len(f.Ops)))
	for _, op := range f.Ops {
		var flags uint64
		if op.Del {
			flags = deltaFlagDel
		}
		words = append(words, flags, op.Key, op.Val)
	}
	return words
}

// decodeDelta decodes a delta frame's payload.
func decodeDelta(words []uint64) (Frame, error) {
	if len(words) < 4 {
		return Frame{}, fmt.Errorf("%w: short delta frame", ErrBadFrame)
	}
	n := words[3]
	if uint64(len(words)) != 4+3*n {
		return Frame{}, fmt.Errorf("%w: delta count %d does not match payload", ErrBadFrame, n)
	}
	f := Frame{Epoch: words[0], Seq: words[1], Shard: int(words[2])}
	if n > 0 {
		f.Ops = make([]workloads.Op, n)
		for i := uint64(0); i < n; i++ {
			f.Ops[i] = workloads.Op{
				Del: words[4+3*i]&deltaFlagDel != 0,
				Key: words[5+3*i],
				Val: words[6+3*i],
			}
		}
	}
	return f, nil
}
