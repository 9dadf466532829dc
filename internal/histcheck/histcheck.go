// Package histcheck is the KV service's client-visible contract, written
// down once (DESIGN §5.3): an oracle over a history that clients
// observed — writes and their acks, reads and their results, power cuts
// and promotions — which names every departure from per-key durable
// linearizability (Raad et al., PAPERS.md).
//
// Checking one key at a time is exact and cheap because of three facts
// the campaigns guarantee: keys are independent registers, every value
// written to a key is unique to that key, and each key has one
// synchronous writer. So a key's writes are totally ordered by their
// invocations, and a read's value names the one write it observed.
package histcheck

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Op is what an event records.
type Op uint8

const (
	Set     Op = iota // a write of Val to Key
	Del               // a delete of Key
	Get               // a read: one GET result or one SCAN pair
	Crash             // Node lost power and rebooted from its durable image
	Promote           // Node became the primary of Epoch
)

func (o Op) String() string { return [...]string{"set", "del", "get", "crash", "promote"}[o] }

// Outcome is how a write ended.
type Outcome uint8

const (
	Pending Outcome = iota // no reply: it may or may not have happened
	Acked                  // Node acknowledged it at Return
	Refused                // a refusal: it never happened
)

func (o Outcome) String() string { return [...]string{"pending", "acked", "refused"}[o] }

// Event is one entry of a history. Invoke and Return are stamps from one
// clock (Recorder.Now): a.Return < b.Invoke means a completed before b
// began. A Crash or Promote has Return == Invoke.
type Event struct {
	Op      Op
	Client  int
	Node    string // a write's acking node, a read's serving node, the node that crashed or was promoted
	Key     uint64
	Val     uint64
	Found   bool    // a read found Key, holding Val
	Outcome Outcome // writes only
	Epoch   uint64  // an ack's epoch (its node's at the time), a promotion's new epoch
	Invoke  int64
	Return  int64
}

// Kind names the rule a violation breaks (DESIGN §5.3).
type Kind uint8

const (
	LostAck        Kind = iota + 1 // rule 1: an acked write did not survive a crash
	Phantom                        // rule 2: a read found a key nobody had written
	Torn                           // rule 2: a read found a value never written to its key
	StaleRead                      // rule 3: a read missed the last write acked before it began
	Backwards                      // rule 3: a read returned older than an earlier read
	ObservedLost                   // rule 4: a write a completed read observed un-happened across a crash
	ReplicaRegress                 // rule 5: a replica read went backwards
	DeposedHole                    // rule 6: a deposed epoch's ack survived after an earlier one was lost
	NewEpochLost                   // rule 6: a write the new epoch acked did not survive
)

func (k Kind) String() string {
	return [...]string{"", "lost-ack", "phantom", "torn", "stale-read", "backwards",
		"observed-lost", "replica-regress", "deposed-hole", "new-epoch-lost"}[k]
}

// Violation is one broken rule and the events that witness it: first the
// offending read (for DeposedHole, the surviving write), then the write or
// read it contradicts.
type Violation struct {
	Kind   Kind
	Key    uint64
	Events []Event
}

func (v Violation) Error() string {
	s := fmt.Sprintf("%s on key %d", v.Kind, v.Key)
	for _, e := range v.Events {
		s += fmt.Sprintf("; %+v", e)
	}
	return s
}

// checker holds one history, split for the per-key passes; every slice
// is in invocation order.
type checker struct {
	writes   map[uint64][]*Event // per key, refusals dropped
	acked    map[*Event]int64    // the stamp by which each write had happened
	reads    map[uint64][]*Event // per key
	crashes  []Event
	promotes []Event
	viols    []Violation
}

// Check returns every violation of the contract in h, in no promised
// order; none means h is per-key durably linearizable. It does not modify
// h.
func Check(h []Event) []Violation {
	c := &checker{writes: map[uint64][]*Event{}, acked: map[*Event]int64{}, reads: map[uint64][]*Event{}}
	h = slices.Clone(h)
	slices.SortStableFunc(h, func(a, b Event) int { return cmp.Compare(a.Invoke, b.Invoke) })
	for i := range h {
		e := &h[i]
		switch e.Op {
		case Set, Del:
			if e.Outcome != Refused {
				c.writes[e.Key] = append(c.writes[e.Key], e)
			}
		case Get:
			c.reads[e.Key] = append(c.reads[e.Key], e)
		case Crash:
			c.crashes = append(c.crashes, *e)
		case Promote:
			c.promotes = append(c.promotes, *e)
		}
	}
	final := map[uint64]*placed{}
	for key, ws := range c.writes {
		c.resolve(ws, c.reads[key])
	}
	for key, rs := range c.reads {
		final[key] = c.checkKey(key, c.writes[key], rs)
	}
	c.checkDeposed(final)
	return c.viols
}

// resolve sets every write's ack stamp, MaxInt64 for one not known to
// have happened. A write with no reply happened by the first crash after
// its invocation if a read begun after that crash observed it: power loss
// ends it, so it cannot take effect later.
func (c *checker) resolve(ws, rs []*Event) {
	for _, w := range ws {
		c.acked[w] = math.MaxInt64
		if w.Outcome == Acked {
			c.acked[w] = w.Return
			continue
		}
		if w.Op != Set {
			continue
		}
		i := sort.Search(len(c.crashes), func(i int) bool { return c.crashes[i].Invoke > w.Invoke })
		if i == len(c.crashes) {
			continue
		}
		for _, r := range rs {
			if r.Found && r.Val == w.Val && r.Invoke > c.crashes[i].Invoke {
				c.acked[w] = c.crashes[i].Invoke
				break
			}
		}
	}
}

// deposedBetween reports whether a promotion of a node other than node
// lies in [from, to): what node served before it may be discarded.
func (c *checker) deposedBetween(node string, from, to int64) bool {
	for _, p := range c.promotes {
		if p.Invoke >= from && p.Invoke < to && p.Node != node {
			return true
		}
	}
	return false
}

// crashBetween reports whether a crash of one of nodes lies in [from, to).
func (c *checker) crashBetween(from, to int64, nodes ...string) bool {
	for _, cr := range c.crashes {
		if cr.Invoke >= from && cr.Invoke < to && slices.Contains(nodes, cr.Node) {
			return true
		}
	}
	return false
}

func (c *checker) fail(kind Kind, key uint64, evs ...*Event) {
	v := Violation{Kind: kind, Key: key}
	for _, e := range evs {
		v.Events = append(v.Events, *e)
	}
	c.viols = append(c.viols, v)
}

// placed is a read's place in its key's write order: idx is the write it
// is taken to have observed (0 is the initial absence), top the latest
// write it could have observed.
type placed struct {
	r        *Event
	idx, top int
}

// checkKey checks one key's reads against its writes (rules 1–5). It
// takes them in invocation order and places each at the earliest write
// its bounds allow: an earliest placement never tightens a later read's
// bound, so a violation is reported exactly when no placement avoids
// one. It returns the key's last read on the primary after the last
// promotion, for rule 6.
func (c *checker) checkKey(key uint64, ws, rs []*Event) (final *placed) {
	vals := map[uint64]int{}
	gaps := []int{0} // the write indices that leave the key absent
	for j, w := range ws {
		if w.Op == Set {
			vals[w.Val] = j + 1
		} else {
			gaps = append(gaps, j+1)
		}
	}
	var done []*placed
	for _, r := range rs {
		// pi: the last promotion before the read began, if any.
		pi := sort.Search(len(c.promotes), func(i int) bool { return c.promotes[i].Invoke >= r.Invoke }) - 1
		primary := pi < 0 || c.promotes[pi].Node == r.Node
		// hi: the latest write invoked before the read returned.
		hi := sort.Search(len(ws), func(j int) bool { return ws[j].Invoke >= r.Return })
		p := &placed{r: r}
		if r.Found {
			j, ok := vals[r.Val]
			if !ok || j > hi {
				kind := Torn
				if hi == 0 {
					kind = Phantom
				}
				c.fail(kind, key, r)
				continue
			}
			p.idx, p.top = j, j
		} else {
			p.top = gaps[sort.SearchInts(gaps, hi+1)-1]
		}
		// lo: on the primary, the latest write acked before the read began —
		// after a failover only the new epoch's acks bind (rule 6 judges the
		// deposed ones).
		lo, low := 0, (*Event)(nil)
		for j := hi; primary && j >= 1; j-- {
			if w := ws[j-1]; c.acked[w] < r.Invoke && (pi < 0 || w.Epoch >= c.promotes[pi].Epoch) {
				lo, low = j, w
				break
			}
		}
		// f: the read that completed before this one began and saw the
		// latest write — on this node or, for a primary read, on any node
		// no promotion of another node has deposed since.
		var f *placed
		for _, q := range done {
			if q.r.Return < r.Invoke && (primary || q.r.Node == r.Node) &&
				!c.deposedBetween(q.r.Node, q.r.Return, r.Invoke) && (f == nil || q.idx > f.idx) {
				f = q
			}
		}
		need := lo
		if f != nil {
			need = max(lo, f.idx)
		}
		if !r.Found {
			if g := sort.SearchInts(gaps, need); g < len(gaps) && gaps[g] <= hi {
				p.idx = gaps[g]
			} else {
				p.idx = p.top
			}
		}
		switch {
		case p.idx < lo:
			kind := StaleRead
			if pi > 0 {
				kind = NewEpochLost
			} else if c.crashBetween(c.acked[low], r.Invoke, r.Node, low.Node) {
				kind = LostAck
			}
			c.fail(kind, key, r, low)
		case f != nil && p.idx < f.idx:
			kind := Backwards
			if c.crashBetween(f.r.Return, r.Invoke, r.Node, f.r.Node) {
				kind = ObservedLost
			} else if !primary {
				kind = ReplicaRegress
			}
			c.fail(kind, key, r, f.r)
		}
		done = append(done, p)
		if primary && pi == len(c.promotes)-1 {
			final = p
		}
	}
	return final
}

// checkDeposed applies rule 6's second half to the last failover: the
// deposed epoch's acked writes that survive, judged by each key's last
// primary read, form a prefix of their ack order.
func (c *checker) checkDeposed(final map[uint64]*placed) {
	if len(c.promotes) < 2 {
		return
	}
	epoch := c.promotes[len(c.promotes)-1].Epoch
	var deposed []*Event
	for _, ws := range c.writes {
		for _, w := range ws {
			if w.Outcome == Acked && w.Epoch < epoch {
				deposed = append(deposed, w)
			}
		}
	}
	slices.SortFunc(deposed, func(a, b *Event) int { return cmp.Compare(a.Return, b.Return) })
	var hole *Event
	for _, w := range deposed {
		kr := final[w.Key]
		j := slices.Index(c.writes[w.Key], w) + 1
		switch {
		case kr == nil: // no read judges this key
		case kr.top < j && hole == nil:
			hole = w
		case hole != nil && kr.r.Found && kr.idx == j:
			c.fail(DeposedHole, w.Key, w, hole)
			return
		}
	}
}
