// Command corundum-bench regenerates the paper's evaluation tables and
// figures on the emulated PM device. It mirrors the artifact's run.sh:
//
//	corundum-bench -experiment fig1   # Figure 1  -> perf.csv
//	corundum-bench -experiment fig2   # Figure 2  -> scale.csv
//	corundum-bench -experiment table5 # Table 5   -> micro.csv
//	corundum-bench -experiment table2 # Table 2 matrix (+ pmcheck verify)
//	corundum-bench -experiment table3 # Table 3 lines-of-code comparison
//	corundum-bench -experiment ablation # design-choice ablations (DESIGN.md)
//	corundum-bench -experiment all
//
// Each experiment prints a human-readable table to stdout; -csv DIR also
// writes the artifact's CSV files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"corundum/internal/baselines/engine"
	"corundum/internal/bench"
	"corundum/internal/pmem"
	"corundum/internal/workloads/loc"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig1|fig2|table2|table3|table5|ablation|all")
		n          = flag.Int("n", 20000, "operations per Figure 1 workload")
		microOps   = flag.Int("micro-ops", 50000, "operations per Table 5 row (paper: 50k)")
		segments   = flag.Int("segments", 256, "corpus segments for Figure 2")
		segBytes   = flag.Int("seg-bytes", 64<<10, "bytes per corpus segment")
		consumers  = flag.Int("consumers", 15, "max consumers for Figure 2 (paper: 15)")
		profile    = flag.String("profile", "OptaneDC", "memory profile for Figure 1: OptaneDC|CXL|DRAM|NoDelay")
		csvDir     = flag.String("csv", "", "also write artifact CSV files to this directory")
		jsonDir    = flag.String("json", "", "also write the BENCH_micro.json artifact to this directory")
	)
	flag.Parse()

	if err := run(*experiment, *n, *microOps, *segments, *segBytes, *consumers, *profile, *csvDir, *jsonDir); err != nil {
		fmt.Fprintln(os.Stderr, "corundum-bench:", err)
		os.Exit(1)
	}
}

func profileByName(name string) (pmem.Profile, error) {
	switch name {
	case "OptaneDC":
		return pmem.OptaneDC, nil
	case "DRAM":
		return pmem.DRAM, nil
	case "NoDelay":
		return pmem.NoDelay, nil
	case "CXL":
		return pmem.CXL, nil
	}
	return pmem.Profile{}, fmt.Errorf("unknown profile %q", name)
}

func run(experiment string, n, microOps, segments, segBytes, consumers int, profName, csvDir, jsonDir string) error {
	prof, err := profileByName(profName)
	if err != nil {
		return err
	}
	all := experiment == "all"

	if all || experiment == "table2" {
		fmt.Println("=== Table 2: static/dynamic/manual check matrix ===")
		bench.PrintTable2(os.Stdout, bench.Table2())
		if counts, err := bench.VerifyTable2("internal/check/testdata"); err == nil {
			fmt.Printf("\npmcheck verification over the listing corpus: %v\n", counts)
		} else {
			fmt.Printf("\n(pmcheck corpus not found from this directory: %v)\n", err)
		}
		fmt.Println()
	}

	if all || experiment == "table3" {
		fmt.Println("=== Table 3: lines of code to add persistence ===")
		bench.PrintTable3(os.Stdout, loc.Table3())
		fmt.Println()
	}

	if all || experiment == "table5" {
		fmt.Println("=== Table 5: basic operation latency (averaged) ===")
		optane, err := bench.Micro(pmem.OptaneDC, microOps)
		if err != nil {
			return err
		}
		dram, err := bench.Micro(pmem.DRAM, microOps)
		if err != nil {
			return err
		}
		bench.PrintMicro(os.Stdout, optane, dram)
		fmt.Println()
		if csvDir != "" {
			f, err := os.Create(filepath.Join(csvDir, "micro.csv"))
			if err != nil {
				return err
			}
			if err := bench.WriteMicroCSV(f, "OptaneDC", optane); err != nil {
				return err
			}
			if err := bench.WriteMicroCSV(f, "DRAM", dram); err != nil {
				return err
			}
			f.Close()
		}
		if jsonDir != "" {
			f, err := os.Create(filepath.Join(jsonDir, "BENCH_micro.json"))
			if err != nil {
				return err
			}
			err = bench.WriteMicroJSON(f, map[string][]bench.MicroResult{"OptaneDC": optane, "DRAM": dram})
			f.Close()
			if err != nil {
				return err
			}
		}
	}

	if all || experiment == "fig1" {
		fmt.Printf("=== Figure 1: library comparison (%d ops, %s profile) ===\n", n, prof.Name)
		rows, err := bench.Fig1(n, engine.Config{Size: 512 << 20, Mem: pmem.Options{Profile: prof}})
		if err != nil {
			return err
		}
		bench.PrintFig1(os.Stdout, rows)
		fmt.Println()
		if csvDir != "" {
			f, err := os.Create(filepath.Join(csvDir, "perf.csv"))
			if err != nil {
				return err
			}
			if err := bench.WritePerfCSV(f, rows); err != nil {
				return err
			}
			f.Close()
		}
	}

	if all || experiment == "ablation" {
		fmt.Println("=== Ablations: what the design choices are worth ===")
		rows, err := bench.AblationDedup(n/4, engine.Config{Size: 256 << 20, Mem: pmem.Options{Profile: prof}})
		if err != nil {
			return err
		}
		arenaRows, err := bench.AblationArenas(segments/2, segBytes, 4)
		if err != nil {
			return err
		}
		rows = append(rows, arenaRows...)
		for _, r := range rows {
			fmt.Printf("%-40s with: %8.3fs  without: %8.3fs  (%.2fx)", r.Name, r.Baseline, r.Ablated, r.Ablated/r.Baseline)
			if r.BaselineFences > 0 {
				fmt.Printf("  fences: %d vs %d (%.2fx)", r.BaselineFences, r.AblatedFences, float64(r.AblatedFences)/float64(r.BaselineFences))
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if all || experiment == "fig2" {
		fmt.Printf("=== Figure 2: wordcount scalability (%d segments x %d B, %d cores) ===\n",
			segments, segBytes, runtime.NumCPU())
		rows, err := bench.Fig2(segments, segBytes, consumers)
		if err != nil {
			return err
		}
		bench.PrintFig2(os.Stdout, rows)
		fmt.Println()
		if csvDir != "" {
			f, err := os.Create(filepath.Join(csvDir, "scale.csv"))
			if err != nil {
				return err
			}
			if err := bench.WriteScaleCSV(f, rows); err != nil {
				return err
			}
			f.Close()
		}
	}
	return nil
}
