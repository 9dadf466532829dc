package pool

import (
	"testing"

	"corundum/internal/journal"
)

// BenchmarkPoolTxNop pins the cost of the empty transaction: a journal
// slot taken and returned, Begin and End, no persistent-memory traffic.
func BenchmarkPoolTxNop(b *testing.B) {
	p, err := Create("", Config{Size: 8 << 20, Journals: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Transaction(func(j *journal.Journal) error { return nil })
	}
}
