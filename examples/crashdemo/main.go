// crashdemo: watch Corundum's failure atomicity do its job.
//
// The program builds a small persistent banking ledger, then performs a
// transfer while injecting a power failure at a random device operation
// mid-transaction. After "reboot" (recovery), it verifies that the money
// is either entirely moved or entirely not — never lost — and that the
// allocator heap survived structurally intact. Run it repeatedly; every
// crash point ends in a consistent ledger.
//
//	go run ./examples/crashdemo [-crash-at N]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"corundum/internal/core"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// P is the ledger's pool type.
type P struct{}

// Account is one persistent account.
type Account struct {
	ID      int64
	Balance core.PCell[int64, P]
}

// Ledger is the pool root: a fixed set of accounts and an audit counter.
type Ledger struct {
	Accounts  [8]Account
	Transfers core.PCell[int64, P]
}

func total(l *Ledger) int64 {
	var sum int64
	for i := range l.Accounts {
		sum += l.Accounts[i].Balance.Get()
	}
	return sum
}

func main() {
	crashAt := flag.Int("crash-at", 0, "device operation to crash at (0 = random)")
	flag.Parse()
	if *crashAt == 0 {
		rand.New(rand.NewSource(time.Now().UnixNano()))
		*crashAt = 1 + rand.Intn(60)
	}

	cfg := core.Config{Size: 8 << 20, Journals: 4, Mem: pmem.Options{TrackCrash: true}}
	root, err := core.Open[Ledger, P]("", cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Seed the ledger: 1000 in every account.
	if err := core.Transaction[P](func(j *core.Journal[P]) error {
		l := root.Deref()
		for i := range l.Accounts {
			if err := l.Accounts[i].Balance.Set(j, 1000); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	dev := core.DeviceOf[P]()
	before := total(root.Deref())
	fmt.Printf("ledger seeded: %d accounts, total %d\n", 8, before)

	// Inject a crash mid-transfer.
	var count int
	dev.SetFaultInjector(func(op pmem.Op) bool {
		count++
		return count == *crashAt
	})
	fmt.Printf("transferring 500 from account 0 to account 7, crashing at device op %d...\n", *crashAt)
	pmem.Contain(func() {
		_ = core.Transaction[P](func(j *core.Journal[P]) error {
			l := root.Deref()
			if err := l.Accounts[0].Balance.Update(j, func(b int64) int64 { return b - 500 }); err != nil {
				return err
			}
			if err := l.Accounts[7].Balance.Update(j, func(b int64) int64 { return b + 500 }); err != nil {
				return err
			}
			return l.Transfers.Update(j, func(n int64) int64 { return n + 1 })
		})
	})
	dev.SetFaultInjector(nil)

	// Power loss: everything unflushed is gone. Reboot: pool recovery runs.
	dev.Crash()
	if err := core.ClosePool[P](); err != nil {
		log.Fatal(err)
	}
	p2, err := pool.Attach(dev)
	if err != nil {
		log.Fatal("recovery failed:", err)
	}
	fmt.Println("crashed and recovered.")

	// Verify: read the ledger straight from the recovered pool image.
	l2, err := core.Adopt[Ledger, P](p2)
	if err != nil {
		log.Fatal(err)
	}
	defer core.ClosePool[P]()
	l := l2.Deref()
	after := total(l)
	a0 := l.Accounts[0].Balance.Get()
	a7 := l.Accounts[7].Balance.Get()
	transfers := l.Transfers.Get()
	fmt.Printf("after recovery: account0=%d account7=%d transfers=%d total=%d\n", a0, a7, transfers, after)

	switch {
	case after != before:
		log.Fatalf("MONEY LOST OR CREATED: total %d != %d", after, before)
	case transfers == 1 && (a0 != 500 || a7 != 1500):
		log.Fatalf("TORN TRANSFER: recorded but balances are %d/%d", a0, a7)
	case transfers == 0 && (a0 != 1000 || a7 != 1000):
		log.Fatalf("TORN TRANSFER: not recorded but balances are %d/%d", a0, a7)
	}
	if err := p2.CheckConsistency(); err != nil {
		log.Fatal("heap corrupt after recovery:", err)
	}
	fmt.Println("ledger is atomically consistent: the transfer either fully happened or never did.")
}
