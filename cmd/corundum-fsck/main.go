// Command corundum-fsck judges a Corundum pool file the way the next
// open will, without modifying it. It reads the file once into a private
// in-memory copy and runs on that copy what the next repairing open runs:
// the structural check (pool.FsckDevice), the repairing attach
// (pool.AttachRepair, which pool.OpenRepair wraps) and, for a pool that
// opens writable, the heap consistency check. It prints every problem the check found, what the
// attached pool holds (size, generation, root, journals, heap use, what
// recovery rolled back and forward, the degraded reason and quarantined
// ranges) and, when the root is untyped as a KV store's is, the store's
// key count and chain shape, and its layout: what the next boot does
// with the file as shard 0. The last line for each file is its status,
// exactly one of:
//
//	clean                          the next open needs no repair
//	clean (recovery rolled back …) the same, after recovery rolls crashed transactions back or forward
//	repairable: …                  the next open rewrites the listed structures from mirrors and checksums
//	degraded: …                    the next open serves reads only, with the damaged ranges quarantined
//	refused: <error>               the next open refuses the image, or its heap fails the consistency check
//
// The verdict is the pool's, not an application's: corundum-server's boot
// also refuses a degraded pool with no root and a root that is not a KV
// store. fsck shows the first as degraded with root (unset) and the
// second as a store line that names the attach error.
//
// Exit code 0 means every file is clean, 1 that some file is not, and 2
// a usage error.
//
// Usage:
//
//	corundum-fsck <pool-file> [...]
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: corundum-fsck <pool-file> [...]")
		os.Exit(2)
	}
	code := 0
	for _, path := range os.Args[1:] {
		code = max(code, run(os.Stdout, path))
	}
	os.Exit(code)
}

// status is the class of a verdict, in order of severity.
type status int

const (
	clean status = iota
	repairable
	degraded
	refused
)

// verdict is what the next open concludes about one image.
type verdict struct {
	status   status
	problems []pool.FsckProblem // FsckDevice's findings before any repair
	err      error              // why the image is refused
	p        *pool.Pool         // the private attach; nil when it was refused
}

// judge decides the verdict on dev, which must be a private copy:
// recovery and repair write to it.
func judge(dev *pmem.Device) verdict {
	rep, err := pool.FsckDevice(dev)
	if err != nil {
		return verdict{status: refused, err: err}
	}
	v := verdict{problems: rep.Problems}
	if v.p, err = pool.AttachRepair(dev); err != nil {
		v.status, v.err = refused, err
		return v
	}
	switch {
	case v.p.Degraded():
		v.status = degraded
	case !rep.Clean():
		v.status = repairable
	}
	// A writable pool whose heap is inconsistent after recovery, e.g. one
	// a committed allocator redo log damaged, is refused: server boot runs
	// the same check before it serves.
	if v.status != degraded {
		if err := v.p.CheckConsistency(); err != nil {
			v.status, v.err = refused, err
		}
	}
	return v
}

func (v verdict) String() string {
	switch v.status {
	case refused:
		return "refused: " + v.err.Error()
	case degraded:
		return fmt.Sprintf("degraded: opens read-only, %d range(s) quarantined", len(v.p.Quarantine()))
	case repairable:
		where := make([]string, len(v.problems))
		for i, pr := range v.problems {
			where[i] = pr.Where()
		}
		return "repairable: the next open rewrites " + strings.Join(where, ", ")
	}
	if back, fwd := v.p.Recovery(); back+fwd > 0 {
		return fmt.Sprintf("clean (recovery rolled back %d, rolled forward %d transaction(s))", back, fwd)
	}
	return "clean"
}

// run judges the pool file at path, prints what it found to w, and
// returns the file's exit code.
func run(w io.Writer, path string) int {
	fmt.Fprintf(w, "%s:\n", path)
	v := verdict{status: refused}
	if dev, err := load(path); err != nil {
		v.err = err
	} else {
		v = judge(dev)
	}
	for _, pr := range v.problems {
		fmt.Fprintf(w, "  problem     %s\n", pr)
	}
	if v.p != nil {
		describe(w, v.p)
		if v.status <= repairable && v.p.RootOff() != 0 && v.p.RootTypeHash() == 0 {
			printStore(w, v.p)
		}
	}
	fmt.Fprintf(w, "  status      %s\n", v)
	if v.status == clean {
		return 0
	}
	return 1
}

// load reads the pool file at path into a private in-memory device, a
// chunk at a time so the image is held once. fsck judges this copy, so
// nothing the judgement writes reaches the file; a file-mapped device
// would have to be mapped privately here for the same reason.
func load(path string) (*pmem.Device, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 || size%pmem.CacheLineSize != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not a whole number of %d-byte lines", pool.ErrNotAPool, size, pmem.CacheLineSize)
	}
	dev := pmem.New(int(size), pmem.Options{})
	buf := make([]byte, min(size, 1<<20))
	for off := int64(0); off < size; {
		n, err := io.ReadFull(f, buf[:min(int64(len(buf)), size-off)])
		if err != nil {
			return nil, err
		}
		dev.StoreBytes(uint64(off), buf[:n])
		off += int64(n)
	}
	return dev, nil
}

// describe prints what the attached pool holds.
func describe(w io.Writer, p *pool.Pool) {
	fmt.Fprintf(w, "  size        %d bytes\n", p.Device().Size())
	fmt.Fprintf(w, "  generation  %d at the next open\n", p.Generation())
	if root := p.RootOff(); root == 0 {
		fmt.Fprintf(w, "  root        (unset)\n")
	} else {
		fmt.Fprintf(w, "  root        offset %#x, type hash %#x\n", root, p.RootTypeHash())
	}
	fmt.Fprintf(w, "  journals    %d\n", p.Journals())
	fmt.Fprintf(w, "  heap        %d in use, %d free\n", p.InUse(), p.FreeBytes())
	if back, fwd := p.Recovery(); back+fwd > 0 {
		fmt.Fprintf(w, "  recovery    rolled back %d, rolled forward %d\n", back, fwd)
	}
	if p.Degraded() {
		fmt.Fprintf(w, "  degraded    %s\n", p.DegradedReason())
	}
	for _, r := range p.Quarantine() {
		fmt.Fprintf(w, "  quarantine  [%#x, %#x)\n", r.Off, r.Off+r.Len)
	}
}

// printStore attaches the KV store at the pool's root and prints what
// its integrity walk measured and what workloads.DecideBoot says a boot
// does with it. A root that is some other structure fails the walk; that
// is reported, and does not change the status.
func printStore(w io.Writer, p *pool.Pool) {
	kv, st, err := storeShape(p)
	if err != nil {
		fmt.Fprintf(w, "  store       not a verified KV store: %v\n", err)
		return
	}
	fmt.Fprintf(w, "  store       %d keys, longest chain %d, mean hit position %.2f\n",
		st.Keys, st.Longest, st.MeanHit())
	if v, err := workloads.DecideBoot([]*workloads.KVStore{kv}); err != nil {
		fmt.Fprintf(w, "  layout      the next boot refuses: %v\n", err)
	} else {
		fmt.Fprintf(w, "  layout      %s\n", v)
	}
}

func storeShape(p *pool.Pool) (*workloads.KVStore, workloads.ChainStats, error) {
	kv, err := workloads.AttachKVStore(corundumeng.Wrap(p))
	if err != nil {
		return nil, workloads.ChainStats{}, err
	}
	st, err := kv.VerifyIntegrity()
	return kv, st, err
}
