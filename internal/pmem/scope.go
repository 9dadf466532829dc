package pmem

// Scope labels which subsystem a device operation is performed on behalf
// of, so flush/fence traffic can be attributed the way the paper's Fig. 9
// breaks costs down: undo logging (journal), the allocator's redo logging,
// user data persistence, and crash recovery.
//
// The scope rides the handle an operation is issued through (Device.In),
// not the goroutine that issues it: the journal holds a ScopeJournal
// handle for its log and state words, the allocator a ScopeAllocRedo
// handle, recovery makes a ScopeRecovery handle and passes it down, and
// the device's own methods — DAX-style stores persisted at commit — are
// the ScopeUserData handle. "Innermost wins" (an allocation performed
// during recovery is allocator-redo traffic) is then a matter of which
// layer owns which handle, and there is no ambient label for a panic or
// a power cut to strand.
type Scope uint8

// Attribution scopes, in render order.
const (
	ScopeUserData  Scope = iota // default: user data flush/fence at commit
	ScopeJournal                // undo-log appends and state-word updates
	ScopeAllocRedo              // buddy-allocator redo-log commit/apply
	ScopeRecovery               // attach-time rollback/roll-forward
	NumScopes
)

func (s Scope) String() string {
	switch s {
	case ScopeUserData:
		return "user-data"
	case ScopeJournal:
		return "journal"
	case ScopeAllocRedo:
		return "alloc-redo"
	case ScopeRecovery:
		return "recovery"
	default:
		return "unknown"
	}
}

// Handle is a device bound to one attribution scope: its Write, Flush,
// Fence and Persist are the device's, charged to that scope. Everything
// else (loads, uncounted stores, Stats, …) is the embedded device's own:
// only counted operations carry a scope. A Handle
// is a two-word value; layers keep the one they were given and pass it by
// value.
type Handle struct {
	*Device
	scope Scope
}

// In returns the handle that charges its operations to scope.
func (d *Device) In(scope Scope) Handle { return Handle{d, scope} }

// Write is Device.Write charged to the handle's scope.
func (h Handle) Write(off uint64, data []byte) { h.Device.write(h.scope, off, data) }

// Flush is Device.Flush charged to the handle's scope.
func (h Handle) Flush(off, n uint64) { h.Device.flush(h.scope, off, n) }

// Fence is Device.Fence charged to the handle's scope.
func (h Handle) Fence() { h.Device.fence(h.scope) }

// Persist is the common Flush-then-Fence sequence.
func (h Handle) Persist(off, n uint64) {
	h.Flush(off, n)
	h.Fence()
}
