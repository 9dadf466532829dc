// Command corundum-fsck inspects a Corundum pool file without modifying
// it: header fields, per-arena space accounting and structural
// consistency, journal states (including transactions that a crash left
// pending, which the next Open will roll back or forward), and the root
// pointer. When the root is untyped, as a KV store's is, it also walks
// the store as the next open would see it and prints its chains' shape:
// the longest chain and the mean chain position of a stored key. Exit
// code 1 means structural corruption was found; pending journals alone
// are healthy (that is what recovery is for).
//
// Usage:
//
//	corundum-fsck <pool-file> [...]
package main

import (
	"fmt"
	"os"

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
	bad := false
	for _, path := range os.Args[1:] {
		r, err := pool.Inspect(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "corundum-fsck: %s: %v\n", path, err)
			bad = true
			continue
		}
		printReport(path, r)
		if len(r.Errors) > 0 {
			bad = true
		} else if r.RootOff != 0 && r.RootType == 0 {
			printStore(path)
		}
	}
	if bad {
		os.Exit(1)
	}
}

func printReport(path string, r *pool.Report) {
	fmt.Printf("%s:\n", path)
	fmt.Printf("  size        %d bytes\n", r.Size)
	fmt.Printf("  generation  %d\n", r.Generation)
	if r.RootOff == 0 {
		fmt.Printf("  root        (unset)\n")
	} else {
		fmt.Printf("  root        offset %#x, type hash %#x\n", r.RootOff, r.RootType)
	}
	fmt.Printf("  journals    %d x %d bytes\n", r.Journals, r.JournalCap)

	var inUse, free uint64
	arenaErrs := 0
	for _, a := range r.Arenas {
		inUse += a.InUse
		free += a.FreeBytes
		if a.Err != "" {
			arenaErrs++
		}
	}
	fmt.Printf("  heap        %d arenas x %d bytes: %d in use, %d free\n",
		len(r.Arenas), r.ArenaHeap, inUse, free)
	for _, a := range r.Arenas {
		if a.Err != "" || a.RedoLog != "clean" {
			fmt.Printf("    arena %-3d %s%s\n", a.Index, a.RedoLog, errSuffix(a.Err))
		}
	}
	pending := 0
	for _, j := range r.JournalInfo {
		if j.State != "idle" {
			pending++
			fmt.Printf("    journal %-3d epoch %-6d %s\n", j.Index, j.Epoch, j.State)
		}
	}
	switch {
	case len(r.Errors) > 0:
		fmt.Printf("  status      CORRUPT: %d problem(s)\n", len(r.Errors))
		for _, e := range r.Errors {
			fmt.Printf("    ! %s\n", e)
		}
	case pending > 0:
		fmt.Printf("  status      clean (crashed: %d transaction(s) pending recovery at next open)\n", pending)
	default:
		fmt.Printf("  status      clean\n")
	}
}

func errSuffix(e string) string {
	if e == "" {
		return ""
	}
	return " — " + e
}

// printStore attaches the KV store at the pool's root in a private copy
// of the image, so recovery and any format upgrade happen in memory and
// the file is never written, and prints what its integrity walk measured.
// A root that is some other structure fails the walk; that is reported,
// not counted as corruption.
func printStore(path string) {
	st, err := storeShape(path)
	if err != nil {
		fmt.Printf("  store       not a verified KV store: %v\n", err)
		return
	}
	fmt.Printf("  store       %d keys, longest chain %d, mean hit position %.2f\n",
		st.Keys, st.Longest, st.MeanHit())
}

func storeShape(path string) (workloads.ChainStats, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return workloads.ChainStats{}, err
	}
	dev := pmem.New(len(img), pmem.Options{})
	dev.StoreBytes(0, img)
	p, err := pool.Attach(dev)
	if err != nil {
		return workloads.ChainStats{}, err
	}
	defer p.Close()
	kv, err := workloads.AttachKVStore(corundumeng.Wrap(p))
	if err != nil {
		return workloads.ChainStats{}, err
	}
	return kv.VerifyIntegrity()
}
