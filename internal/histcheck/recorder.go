package histcheck

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Recorder collects one history from concurrent clients. Its clock is one
// atomic counter, so a stamp taken after a reply arrived is below every
// stamp any goroutine takes later: the real-time order the contract
// speaks of.
type Recorder struct {
	clock  atomic.Int64
	mu     sync.Mutex
	events []Event
	epochs map[string]uint64 // each node's epoch, from its last promotion
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{epochs: map[string]uint64{}} }

// Now takes a stamp.
func (r *Recorder) Now() int64 { return r.clock.Add(1) }

func (r *Recorder) add(e Event) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
	return len(r.events) - 1
}

// Write records a write's invocation, before it first goes on the wire,
// and returns the handle Ack takes. Until acked it stays Pending.
func (r *Recorder) Write(client int, del bool, key, val uint64) int {
	op := Set
	if del {
		op, val = Del, 0
	}
	return r.add(Event{Op: op, Client: client, Key: key, Val: val, Invoke: r.Now()})
}

// Ack records that node acknowledged write id, stamped with node's epoch.
func (r *Recorder) Ack(id int, node string) {
	now := r.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	e := &r.events[id]
	e.Outcome, e.Node, e.Epoch, e.Return = Acked, node, r.epochs[node], now
}

// Read records one GET result or one SCAN pair that node served to a
// request sent at stamp inv.
func (r *Recorder) Read(client int, node string, key, val uint64, found bool, inv int64) {
	r.add(Event{Op: Get, Client: client, Node: node, Key: key, Val: val, Found: found, Invoke: inv, Return: r.Now()})
}

// Keyspace records a whole-keyspace SCAN that node served to a request
// sent at stamp inv: a read of every pair in kv, and an absent read of
// every other key the history has written.
func (r *Recorder) Keyspace(client int, node string, kv map[uint64]uint64, inv int64) {
	now := r.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := map[uint64]bool{}
	for _, e := range r.events {
		if e.Op == Set || e.Op == Del {
			keys[e.Key] = true
		}
	}
	for k := range kv {
		keys[k] = true
	}
	for k := range keys {
		v, found := kv[k]
		r.events = append(r.events, Event{Op: Get, Client: client, Node: node, Key: k, Val: v, Found: found, Invoke: inv, Return: now})
	}
}

// Crash records that node lost power and rebooted from its durable image.
func (r *Recorder) Crash(node string) {
	now := r.Now()
	r.add(Event{Op: Crash, Node: node, Invoke: now, Return: now})
}

// Promote records that node became the primary of epoch; the writes it
// acknowledges from now on carry that epoch.
func (r *Recorder) Promote(node string, epoch uint64) {
	now := r.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epochs[node] = epoch
	r.events = append(r.events, Event{Op: Promote, Node: node, Epoch: epoch, Invoke: now, Return: now})
}

// History returns a copy of everything recorded so far.
func (r *Recorder) History() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.events)
}
