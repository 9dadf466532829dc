package histcheck

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

func acked(key, val uint64, inv, ret int64) Event {
	return Event{Op: Set, Key: key, Val: val, Outcome: Acked, Node: "a", Invoke: inv, Return: ret}
}

func by(e Event, node string, epoch uint64) Event { e.Node, e.Epoch = node, epoch; return e }

func pending(key, val uint64, inv int64) Event {
	return Event{Op: Set, Key: key, Val: val, Invoke: inv}
}

func get(node string, key, val uint64, inv, ret int64) Event {
	return Event{Op: Get, Node: node, Key: key, Val: val, Found: true, Invoke: inv, Return: ret}
}

func miss(node string, key uint64, inv, ret int64) Event {
	return Event{Op: Get, Node: node, Key: key, Invoke: inv, Return: ret}
}

func crash(node string, t int64) Event { return Event{Op: Crash, Node: node, Invoke: t, Return: t} }

func promote(node string, epoch uint64, t int64) Event {
	return Event{Op: Promote, Node: node, Epoch: epoch, Invoke: t, Return: t}
}

// planted is one history per rule a campaign can break, each holding
// exactly one violation.
var planted = []struct {
	name string
	h    []Event
	want Kind
}{
	{"lost ack", []Event{acked(1, 10, 1, 2), crash("a", 3), miss("a", 1, 4, 5)}, LostAck},
	{"phantom key", []Event{acked(1, 10, 1, 2), get("a", 9, 5, 3, 4)}, Phantom},
	{"refused write observed", []Event{{Op: Set, Key: 1, Val: 10, Outcome: Refused, Invoke: 1}, get("a", 1, 10, 2, 3)}, Phantom},
	{"torn value", []Event{acked(1, 10, 1, 2), get("a", 1, 11, 3, 4)}, Torn},
	{"stale read after a newer ack", []Event{acked(1, 10, 1, 2), acked(1, 11, 3, 4), get("a", 1, 10, 5, 6)}, StaleRead},
	{"two reads going backwards", []Event{
		acked(1, 10, 1, 2), pending(1, 11, 3), get("a", 1, 11, 4, 5), get("a", 1, 10, 6, 7)}, Backwards},
	// A reader answered from a commit that power loss cut (200), and
	// recovery rolled it back to the last acked value (150).
	{"observed then rolled back", []Event{
		acked(1, 100, 1, 2), acked(1, 150, 3, 4), pending(1, 200, 5),
		get("a", 1, 200, 6, 7), crash("a", 8), get("a", 1, 150, 9, 10)}, ObservedLost},
	{"replica read regressing", []Event{
		promote("a", 1, 1), by(acked(1, 10, 2, 3), "a", 1), by(acked(1, 11, 4, 5), "a", 1),
		get("b", 1, 11, 6, 7), get("b", 1, 10, 8, 9)}, ReplicaRegress},
	{"hole then survivor in the deposed epoch", []Event{
		promote("a", 1, 1), by(acked(1, 10, 2, 3), "a", 1), by(acked(2, 20, 4, 5), "a", 1),
		promote("b", 2, 6), miss("b", 1, 7, 8), get("b", 2, 20, 7, 8)}, DeposedHole},
	{"new-epoch ack lost", []Event{
		promote("a", 1, 1), promote("b", 2, 2), by(acked(1, 10, 3, 4), "b", 2), miss("b", 1, 5, 6)}, NewEpochLost},
}

func TestCheckFlagsPlantedHistories(t *testing.T) {
	for _, row := range planted {
		t.Run(row.name, func(t *testing.T) {
			vs := Check(row.h)
			if len(vs) != 1 || vs[0].Kind != row.want {
				t.Fatalf("got %v, want exactly one %s", vs, row.want)
			}
			t.Log(vs[0])
		})
	}
}

// generate plays a reference system and records what its clients saw: one
// synchronous writer over a few keys and concurrent readers, against a
// primary ("p") and a replica ("r") that holds a prefix of the primary's
// commit log. A write is visible and durable the instant it applies, so a
// crash loses only a write not yet applied. At most one failover promotes
// the replica, discarding the primary's unreplicated suffix. Every read
// samples its node's state at one instant inside its interval, so the
// history is per-key durably linearizable by construction.
func generate(seed int64, steps int) []Event {
	rng := rand.New(rand.NewSource(seed))
	rec := NewRecorder()
	rec.Promote("p", 1)
	type entry struct {
		key  uint64
		del  bool
		val  uint64
		node string
	}
	var (
		log        []entry // the primary's commit order
		rep        int     // the replica holds log[:rep]
		primary    = "p"
		nextVal    = map[uint64]uint64{}
		inflight   = -1 // the writer's handle, or -1
		applied    bool
		cur        entry
		failedOver bool
	)
	type read struct {
		node     string
		key, val uint64
		found    bool
		inv      int64
		sampled  bool
	}
	var reads []*read
	state := func(node string, key uint64) (uint64, bool) {
		n := len(log)
		if node != primary {
			n = rep
		}
		val, found := uint64(0), false
		for _, e := range log[:n] {
			if e.key == key {
				val, found = e.val, !e.del
			}
		}
		return val, found
	}
	for s := 0; s < steps; s++ {
		switch rng.Intn(12) {
		case 0: // the writer invokes
			if inflight < 0 {
				key := uint64(1 + rng.Intn(3))
				nextVal[key]++
				cur = entry{key: key, del: rng.Intn(4) == 0, val: key<<20 | nextVal[key], node: primary}
				inflight, applied = rec.Write(0, cur.del, cur.key, cur.val), false
			}
		case 1: // the in-flight write takes effect
			if inflight >= 0 && !applied {
				log, applied = append(log, cur), true
			}
		case 2: // its ack arrives
			if inflight >= 0 && applied {
				rec.Ack(inflight, cur.node)
				inflight = -1
			}
		case 3, 4, 5: // a reader sends a request
			node := primary
			if !failedOver && rng.Intn(2) == 0 {
				node = "r"
			}
			reads = append(reads, &read{node: node, key: uint64(1 + rng.Intn(3)), inv: rec.Now()})
		case 6, 7: // a read takes its value
			if len(reads) > 0 {
				r := reads[rng.Intn(len(reads))]
				if !r.sampled {
					r.val, r.found = state(r.node, r.key)
					r.sampled = true
				}
			}
		case 8, 9: // a sampled read's reply arrives
			for i, r := range reads {
				if r.sampled {
					rec.Read(1+i, r.node, r.key, r.val, r.found, r.inv)
					reads = append(reads[:i], reads[i+1:]...)
					break
				}
			}
		case 10: // the replica catches up by one commit
			if rep < len(log) {
				rep++
			}
		case 11: // power cut, or (once, with no write in flight) a failover
			if rng.Intn(2) == 0 {
				continue
			}
			if !failedOver && inflight < 0 && rng.Intn(3) == 0 {
				log, primary, failedOver = log[:rep], "r", true
				rec.Promote("r", 2)
				reads = reads[:0] // their connections dropped with the role change
				continue
			}
			node := primary
			if !failedOver && rng.Intn(2) == 0 {
				node = "r"
			}
			if node == primary && inflight >= 0 {
				inflight = -1 // the writer gives up: no reply, ever
			}
			kept := reads[:0]
			for _, r := range reads {
				if r.node != node {
					kept = append(kept, r)
				}
			}
			reads = kept
			rec.Crash(node)
		}
	}
	kv := map[uint64]uint64{}
	for key := uint64(1); key <= 3; key++ {
		if v, ok := state(primary, key); ok {
			kv[key] = v
		}
	}
	rec.Keyspace(0, primary, kv, rec.Now())
	return rec.History()
}

func TestCheckAcceptsReferenceHistories(t *testing.T) {
	runs := 2000
	if testing.Short() {
		runs = 200
	}
	for seed := int64(1); seed <= int64(runs); seed++ {
		h := generate(seed, 20+int(seed%200))
		if vs := Check(h); len(vs) > 0 {
			t.Fatalf("seed %d: reference history flagged: %v", seed, vs[0])
		}
	}
}

// A fuzz input is read twice: as a history in eventBytes-sized records,
// which Check must survive, and as the seed of a reference history, which
// Check must accept.
const eventBytes = 9

var fuzzNodes = []string{"a", "b", "c"}

func encode(h []Event) []byte {
	var b []byte
	for _, e := range h {
		node := 0
		for i, n := range fuzzNodes {
			if n == e.Node {
				node = i
			}
		}
		found := 0
		if e.Found {
			found = 1
		}
		b = append(b, byte(e.Op), byte(node), byte(e.Key), byte(e.Val), byte(found),
			byte(e.Outcome), byte(e.Epoch), byte(e.Invoke), byte(e.Return))
	}
	return b
}

func decode(b []byte) []Event {
	var h []Event
	for ; len(b) >= eventBytes; b = b[eventBytes:] {
		h = append(h, Event{
			Op: Op(b[0] % 5), Node: fuzzNodes[int(b[1])%len(fuzzNodes)], Key: uint64(b[2] % 8), Val: uint64(b[3]),
			Found: b[4]&1 == 1, Outcome: Outcome(b[5] % 3), Epoch: uint64(b[6] % 4),
			Invoke: int64(b[7]), Return: int64(b[8]),
		})
	}
	return h
}

func FuzzCheck(f *testing.F) {
	for _, row := range planted {
		f.Add(encode(row.h))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		Check(decode(b))
		hash := fnv.New64a()
		hash.Write(b)
		seed := int64(binary.LittleEndian.Uint64(hash.Sum(nil)))
		if vs := Check(generate(seed, 10+len(b)%300)); len(vs) > 0 {
			t.Fatalf("reference history of seed %d flagged: %v", seed, vs[0])
		}
	})
}
