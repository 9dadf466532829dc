package obs

import (
	"sync/atomic"
	"unsafe"
)

// counterShards spreads hot-path increments across cache lines so that
// concurrent connection goroutines bumping the same logical counter do not
// serialize on one word. 16 shards × 64 B = 1 KiB per counter, cheap for
// the handful of counters the system has.
const counterShards = 16

// padded keeps each shard on its own cache line.
type padded struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a sharded, monotonically increasing counter.
type Counter struct {
	shards [counterShards]padded
}

func newCounter() *Counter { return &Counter{} }

// shardFor picks a shard by Fibonacci-hashing the address of a stack
// local, dropping the low bits that vary with call depth: goroutines run
// on disjoint stacks, so each mostly lands on "its" shard without the
// counter needing to know who the goroutine is. It is only a hint — any
// shard is correct — and the one place this package uses unsafe.
func shardFor() int {
	var local byte
	stack := uint64(uintptr(unsafe.Pointer(&local))) >> 11 // 2 KiB: the smallest stack
	return int((stack * 0x9E3779B97F4A7C15) >> (64 - 4))
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.shards[shardFor()].v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. The result is a consistent-enough snapshot for
// monitoring: each shard is read atomically, and the counter only grows.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}
