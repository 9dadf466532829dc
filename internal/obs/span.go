package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the request-scoped tracing half of the package: where the
// metrics side answers "how many" (counters, histograms), spans answer
// "where did the time go" for individual operations. An OpTrace is one
// completed operation's phase-by-phase latency decomposition; a Tracer
// owns a sampling knob and a bounded ring of recent traces. Recording
// allocates nothing, but it is not free: BenchmarkServeGET in
// internal/server times a pipelined GET over loopback at a median 1.28x
// traced against untraced (12 alternating pairs, 2-vCPU Xeon VM; about
// 220 ns per GET, half of it the two clock reads). The serving layer
// feeds it; SLOWLOG and /debug/trace read it back.

// epoch anchors the package's monotonic clock. NowNS readings are
// comparable to each other within one process; wallAt converts one back
// to wall time for display.
var epoch = time.Now()

// NowNS returns nanoseconds since the process-local epoch, read from the
// monotonic clock (immune to wall-clock steps). It is the timestamp
// currency of every span and phase in the system.
func NowNS() int64 { return int64(time.Since(epoch)) }

// wallAt converts a NowNS reading back to wall-clock time.
func wallAt(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }

// PhaseNS is one phase of an operation: a named sub-interval of the op's
// lifetime. Start is relative to the op's own start, so a trace is
// self-contained. Phases that aggregate interleaved stalls (fence time
// inside a commit) are rendered sequentially; Start orders them for
// display, Dur carries the measurement.
type PhaseNS struct {
	Name  string
	Start int64 // ns offset from the op's start
	Dur   int64 // ns
}

// OpTrace is one completed operation's record: identity, end-to-end
// duration, and its phase decomposition. All times are NowNS values.
type OpTrace struct {
	ID     uint64
	Name   string // operation ("SET", "GET", "batch", ...)
	Shard  int    // owning shard, -1 when not applicable
	Key    uint64
	Start  int64 // NowNS at which the op began (its request's arrival)
	Dur    int64 // end-to-end ns
	Phases []PhaseNS
}

// Sum returns the total of the phase durations — callers compare it to
// Dur to check the decomposition accounts for the whole latency.
func (t OpTrace) Sum() int64 {
	var s int64
	for _, p := range t.Phases {
		s += p.Dur
	}
	return s
}

// maxPhases bounds the phases a trace keeps: the ring stores them inline
// so that recording one allocates nothing. The serving layer records at
// most five (a mutation's queue/journal/fence/apply/ack); Record drops any
// beyond the bound.
const maxPhases = 6

// traceRec is one completed trace as the ring keeps it: its fields, then
// its phases inline. The header fills one 64-byte line and each pair of
// phases the next, so a record spans whole lines and a two-phase read
// trace touches two of them.
type traceRec struct {
	n     int32 // phases held
	shard int32
	id    uint64 // 0: never written
	name  string
	key   uint64
	start int64
	dur   int64
	_     [8]byte
	ph    [maxPhases]PhaseNS
}

func (r *traceRec) set(tr *OpTrace, phases []PhaseNS) {
	r.name, r.shard, r.key, r.start, r.dur = tr.Name, int32(tr.Shard), tr.Key, tr.Start, tr.Dur
	r.n = int32(copy(r.ph[:], phases))
}

// slotsPerLock is how many consecutive ring slots share one lock word.
// A published run takes each word it spans once, so a burst of traces
// pays a few lock round trips, not one per trace.
const slotsPerLock = 8

// slotLock guards slotsPerLock consecutive slots: writers publishing
// into them and readers taking their copy. Each word sits on a cache
// line of its own.
type slotLock struct {
	busy atomic.Uint32
	_    [60]byte
}

func (l *slotLock) lock() {
	for !l.busy.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

func (l *slotLock) unlock() { l.busy.Store(0) }

// Tracer is the op-trace subsystem: a sampling gate in front of a bounded
// ring of completed OpTraces. With sampling off the hot path is a single
// atomic load. Publishing n traces takes one atomic add on the ring
// cursor (which yields their IDs and their slots) and one lock word per
// slotsPerLock slots, and allocates nothing; a TraceBuffer stages a
// connection's traces so that a pipelined burst publishes as one run.
type Tracer struct {
	sample atomic.Int64 // 0 = off, 1 = every op, N = every Nth
	tick   atomic.Uint64
	_      [64]byte // the cursor is written by every publish: keep it off the knob's line
	cursor atomic.Uint64
	slots  []traceRec // power-of-two length
	locks  []slotLock // one per slotsPerLock slots
	mask   uint64
}

// NewTracer returns a tracer retaining the last capacity completed traces
// (rounded up to a power of two), with sampling set to sample (see
// SetSample).
func NewTracer(capacity, sample int) *Tracer {
	n := 1
	for n < capacity {
		n <<= 1
	}
	t := &Tracer{
		slots: make([]traceRec, n),
		locks: make([]slotLock, (n+slotsPerLock-1)/slotsPerLock),
		mask:  uint64(n - 1),
	}
	t.sample.Store(int64(sample))
	return t
}

// SetSample tunes the sampling knob: 0 disables tracing entirely, 1
// traces every operation, N>1 traces every Nth. Safe to flip at runtime.
func (t *Tracer) SetSample(n int) { t.sample.Store(int64(n)) }

// SampleRate reports the current sampling setting.
func (t *Tracer) SampleRate() int { return int(t.sample.Load()) }

// Sampled reports whether the current operation should be traced. The
// caller is expected to build and Record an OpTrace only when it returns
// true, keeping the untraced path to this one check.
func (t *Tracer) Sampled() bool {
	n := t.sample.Load()
	switch {
	case n <= 0:
		return false
	case n == 1:
		return true
	default:
		return t.tick.Add(1)%uint64(n) == 0
	}
}

// Record stores one completed trace, assigning its ID. Its phases are
// phases when any are given, tr.Phases otherwise; either way they are
// copied (up to maxPhases), so the caller may reuse them afterwards.
// Passing them as phases keeps a caller's phase array on its stack: the
// trace's name, which the ring keeps, makes all of tr escape.
func (t *Tracer) Record(tr OpTrace, phases ...PhaseNS) {
	if len(phases) == 0 {
		phases = tr.Phases
	}
	var rec [1]traceRec
	rec[0].set(&tr, phases)
	t.publish(rec[:])
}

// publish stores recs as the next len(recs) traces, IDs in order.
func (t *Tracer) publish(recs []traceRec) {
	id := t.cursor.Add(uint64(len(recs))) - uint64(len(recs))
	var held *slotLock
	for i := range recs {
		id++
		slot := id & t.mask
		if l := &t.locks[slot/slotsPerLock]; l != held {
			if held != nil {
				held.unlock()
			}
			l.lock()
			held = l
		}
		// A writer that drew an ID one lap later may have filled the slot
		// first; the newer trace stays.
		if s, r := &t.slots[slot], &recs[i]; s.id < id {
			s.id, s.n, s.name, s.shard, s.key, s.start, s.dur = id, r.n, r.name, r.shard, r.key, r.start, r.dur
			copy(s.ph[:r.n], r.ph[:r.n])
		}
	}
	if held != nil {
		held.unlock()
	}
}

// TraceBuffer stages one goroutine's completed traces and publishes them
// to its Tracer as one run: a connection records each op of a pipelined
// burst here, in memory no other goroutine touches, and flushes at the
// burst's end, so the ring's cursor and lock words are taken once per
// burst instead of once per op. A full buffer flushes itself. Not safe
// for concurrent use.
type TraceBuffer struct {
	t    *Tracer
	n    int
	recs [32]traceRec
}

// Buffer returns a new, empty TraceBuffer publishing to t.
func (t *Tracer) Buffer() *TraceBuffer { return &TraceBuffer{t: t} }

// Record stages one completed trace, as Tracer.Record stores one; it
// reaches the ring, and gets its ID, at the next Flush.
func (b *TraceBuffer) Record(tr OpTrace, phases ...PhaseNS) {
	if len(phases) == 0 {
		phases = tr.Phases
	}
	if b.n == len(b.recs) {
		b.Flush()
	}
	b.recs[b.n].set(&tr, phases)
	b.n++
}

// Flush publishes the staged traces.
func (b *TraceBuffer) Flush() {
	if b.n > 0 {
		b.t.publish(b.recs[:b.n])
		b.n = 0
	}
}

// Snapshot returns the retained traces, most recent last (by ID). Each
// is copied under its slots' lock word, so none is torn by a writer that
// laps the ring meanwhile.
func (t *Tracer) Snapshot() []OpTrace {
	var out []OpTrace
	for i := range t.slots {
		l := &t.locks[i/slotsPerLock]
		if i%slotsPerLock == 0 {
			l.lock()
		}
		if s := &t.slots[i]; s.id != 0 {
			out = append(out, OpTrace{ID: s.id, Name: s.name, Shard: int(s.shard), Key: s.key,
				Start: s.start, Dur: s.dur, Phases: append([]PhaseNS(nil), s.ph[:s.n]...)})
		}
		if i%slotsPerLock == slotsPerLock-1 || i == len(t.slots)-1 {
			l.unlock()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Slowest returns up to n retained traces ordered by descending duration
// — the SLOWLOG view.
func (t *Tracer) Slowest(n int) []OpTrace {
	all := t.Snapshot()
	sort.SliceStable(all, func(i, j int) bool { return all[i].Dur > all[j].Dur })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Recent returns up to n of the most recently completed traces, oldest
// first — the /debug/trace view.
func (t *Tracer) Recent(n int) []OpTrace {
	all := t.Snapshot()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// FormatSlowlog renders traces as the SLOWLOG text reply: a header line
// then one line per entry, slowest first, each phase in microseconds.
// The reply is built in one strings.Builder sized up front; numbers are
// appended through a stack scratch buffer, so rendering costs about the
// reply's own size however many entries it holds.
func FormatSlowlog(traces []OpTrace) string {
	var b strings.Builder
	b.Grow(32 + 160*len(traces))
	var num [32]byte
	b.WriteString("slowlog_entries: ")
	b.Write(strconv.AppendInt(num[:0], int64(len(traces)), 10))
	b.WriteByte('\n')
	us := func(key string, ns int64) {
		b.WriteString(key)
		b.Write(strconv.AppendFloat(num[:0], float64(ns)/1e3, 'f', 1, 64))
	}
	now := NowNS()
	for i, tr := range traces {
		b.WriteByte('#')
		b.Write(strconv.AppendInt(num[:0], int64(i), 10))
		b.WriteString(" op=")
		b.WriteString(tr.Name)
		b.WriteString(" key=")
		b.Write(strconv.AppendUint(num[:0], tr.Key, 10))
		b.WriteString(" shard=")
		b.Write(strconv.AppendInt(num[:0], int64(tr.Shard), 10))
		us(" total_us=", tr.Dur)
		for _, p := range tr.Phases {
			b.WriteByte(' ')
			b.WriteString(p.Name)
			us("_us=", p.Dur)
		}
		b.WriteString(" age_s=")
		b.Write(strconv.AppendFloat(num[:0], float64(now-tr.Start-tr.Dur)/1e9, 'f', 3, 64))
		b.WriteByte('\n')
	}
	return b.String()
}

// chromeEvent is one Chrome trace-event ("X" = complete event). The
// format is what chrome://tracing and Perfetto load natively: ts and dur
// in microseconds, pid/tid grouping rows.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders traces as Chrome trace-event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev. Each op becomes a complete
// event on its own track (pid = shard, tid = op id) with its phases as
// nested events, so a slow op visually explains itself.
func WriteChromeTrace(w io.Writer, traces []OpTrace) error {
	events := make([]chromeEvent, 0, 4*len(traces))
	for _, tr := range traces {
		pid := tr.Shard
		if pid < 0 {
			pid = 0
		}
		events = append(events, chromeEvent{
			Name: tr.Name, Ph: "X",
			Ts: float64(tr.Start) / 1e3, Dur: float64(tr.Dur) / 1e3,
			Pid: pid, Tid: tr.ID,
			Args: map[string]any{
				"key":  tr.Key,
				"wall": wallAt(tr.Start).Format(time.RFC3339Nano),
			},
		})
		for _, p := range tr.Phases {
			events = append(events, chromeEvent{
				Name: p.Name, Ph: "X",
				Ts: float64(tr.Start+p.Start) / 1e3, Dur: float64(p.Dur) / 1e3,
				Pid: pid, Tid: tr.ID,
			})
		}
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
