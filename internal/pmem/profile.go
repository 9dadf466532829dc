// Package pmem emulates a byte-addressable persistent memory device.
//
// The emulation reproduces the pieces of real PM hardware that matter for
// crash-consistent software: a volatile CPU-cache layer in front of the
// persistent media, explicit cache-line write-back (Flush, modelling
// CLWB/CLFLUSHOPT), store fences (Fence, modelling SFENCE), media latency
// profiles, and crash injection that discards everything not yet fenced to
// the media. The paper's testbed used Intel Optane DC DIMMs and
// battery-backed DRAM; the OptaneDC and DRAM profiles reproduce that
// latency asymmetry so benchmark *shapes* carry over.
package pmem

import "time"

// CacheLineSize is the granularity of Flush, matching x86 cache lines.
const CacheLineSize = 64

// Profile describes the latency behaviour of a persistent-memory medium.
// Latencies are injected with a calibrated spin so that sub-microsecond
// values remain meaningful (time.Sleep cannot sleep for 100ns).
//
// The cost model follows how the instructions actually behave: stores hit
// the cache and are nearly free; CLWB/CLFLUSHOPT issue cheaply and the
// write-backs pipeline; the fence is where the CPU stalls waiting for
// outstanding write-backs to reach the persistence domain. Charging the
// drain at Fence (rather than per line) keeps multi-line flush sequences
// as cheap relative to single-line ones as they are on real hardware.
type Profile struct {
	// Name identifies the profile in benchmark output ("OptaneDC", "DRAM").
	Name string
	// WriteDelay is added per Write (a store reaching the cache;
	// near-free). Loads, and the device's uncounted stores, are cached
	// accesses and free, as on hardware.
	WriteDelay time.Duration
	// FlushDelay is the issue cost per cache-line Flush (CLWB dispatch).
	FlushDelay time.Duration
	// FenceDelay is the drain cost per Fence (SFENCE waiting for all
	// outstanding write-backs to hit the persistence domain).
	FenceDelay time.Duration
}

// Built-in profiles. Optane DC write-backs drain in ~300-500ns and issue
// costs are tens of nanoseconds; battery-backed DRAM halves the drain.
// These reproduce the Optane-vs-DRAM ratios of Table 5. NoDelay removes
// all injected latency and is what unit tests use.
var (
	OptaneDC = Profile{Name: "OptaneDC", WriteDelay: 10 * time.Nanosecond, FlushDelay: 60 * time.Nanosecond, FenceDelay: 300 * time.Nanosecond}
	DRAM     = Profile{Name: "DRAM", WriteDelay: 5 * time.Nanosecond, FlushDelay: 30 * time.Nanosecond, FenceDelay: 100 * time.Nanosecond}
	NoDelay  = Profile{Name: "NoDelay"}
)

// spin busy-waits for roughly d. It is used instead of time.Sleep because
// the scheduler cannot honour sub-microsecond sleeps, and instead of a pure
// instruction loop because wall-clock spinning stays calibrated across
// machines.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// Busy publicly exposes the calibrated spin so library models can charge
// documented instrumentation costs (e.g. an STM's per-load read-path
// overhead) in the same currency as media latencies.
func Busy(d time.Duration) { spin(d) }
