package corundum_test

// Benchmarks regenerating the paper's evaluation via `go test -bench`.
// BenchmarkTable5 runs Table 5's rows, BenchmarkFig1 the bars of Figure
// 1, BenchmarkFig2 the points of the scalability curve, and
// BenchmarkTable2/3 the qualitative tables. Every row, bar and point is
// the internal/bench entry cmd/corundum-bench prints, run at b.N
// operations, and each sub-benchmark is named after its printed row. The
// ns/op reported is the entry's own time in its named operation; set-up
// stays off it.

import (
	"testing"

	"corundum/internal/bench"
)

func BenchmarkTable5(b *testing.B) {
	for _, prof := range bench.Table5Profiles() {
		b.Run(prof.Name, func(b *testing.B) {
			closePool, err := bench.OpenMicro(prof)
			if err != nil {
				b.Fatal(err)
			}
			defer closePool()
			for _, row := range bench.Table5() {
				b.Run(row.Name, func(b *testing.B) {
					d, err := row.Time(b.N)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "ns/op")
				})
			}
		})
	}
}

func BenchmarkFig1(b *testing.B) {
	prof, err := bench.ProfileByName("OptaneDC") // corundum-bench's default
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.Fig1Config(prof)
	// Every sub-benchmark opens a pool; corundum-bench's 512 MiB takes over
	// a second to open, and b.N keys fit in far less.
	cfg.Size = 128 << 20
	for _, w := range bench.Fig1Workloads() {
		for i, bar := range w.Bars {
			for _, lib := range bench.Libraries() {
				b.Run(w.Name+"/"+bar.Op+"/"+lib.Name(), func(b *testing.B) {
					ds, err := w.Time(lib, cfg, b.N, i+1)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(ds[i].Nanoseconds())/float64(b.N), "ns/op")
				})
			}
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	const maxConsumers = 15 // the paper's
	in, err := bench.OpenFig2(64, 16<<10, maxConsumers)
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close()
	for _, p := range bench.Fig2Points(maxConsumers) {
		b.Run(p.Label, func(b *testing.B) {
			var ns int64
			for i := 0; i < b.N; i++ {
				d, _, err := in.Time(p)
				if err != nil {
					b.Fatal(err)
				}
				ns += d.Nanoseconds()
			}
			b.ReportMetric(float64(ns)/float64(b.N), "ns/op")
		})
	}
}

// --- Tables 2 and 3 -----------------------------------------------------------

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.VerifyTable2("internal/check/testdata"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table3()
		if len(rows) != 3 {
			b.Fatal("bad table 3")
		}
	}
}
