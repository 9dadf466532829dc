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
	"io"
	"os"
	"path/filepath"
	"runtime"

	"corundum/internal/baselines/engine"
	"corundum/internal/bench"
	"corundum/internal/pmem"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig1|fig2|table2|table3|table5|ablation|all")
		n          = flag.Int("n", 20000, "operations per Figure 1 workload")
		microOps   = flag.Int("micro-ops", 50000, "operations per Table 5 row (paper: 50k)")
		segments   = flag.Int("segments", 256, "corpus segments for Figure 2")
		segBytes   = flag.Int("seg-bytes", 64<<10, "bytes per corpus segment")
		consumers  = flag.Int("consumers", 15, "max consumers for Figure 2 (paper: 15)")
		profile    = flag.String("profile", "OptaneDC", "memory profile for Figure 1: OptaneDC|DRAM|NoDelay")
		csvDir     = flag.String("csv", "", "also write artifact CSV files to this directory")
	)
	flag.Parse()

	if err := run(*experiment, *n, *microOps, *segments, *segBytes, *consumers, *profile, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "corundum-bench:", err)
		os.Exit(1)
	}
}

func run(experiment string, n, microOps, segments, segBytes, consumers int, profName, csvDir string) error {
	prof, err := bench.ProfileByName(profName)
	if err != nil {
		return err
	}
	all := experiment == "all"

	if all || experiment == "table2" {
		fmt.Println("=== Table 2: static/dynamic/manual check matrix ===")
		bench.PrintTable2(os.Stdout, bench.Table2())
		counts, err := bench.VerifyTable2("internal/check/testdata")
		if err != nil {
			return fmt.Errorf("table 2: %w", err)
		}
		fmt.Printf("\npmcheck verification over the listing corpus: %v\n", counts)
		fmt.Println()
	}

	if all || experiment == "table3" {
		fmt.Println("=== Table 3: lines of code to add persistence ===")
		bench.PrintTable3(os.Stdout, bench.Table3())
		fmt.Println()
	}

	if all || experiment == "table5" {
		fmt.Println("=== Table 5: basic operation latency (averaged) ===")
		cols := bench.Table5Profiles()
		byProfile := map[string][]bench.MicroResult{}
		for _, p := range cols {
			if byProfile[p.Name], err = bench.Micro(p, microOps); err != nil {
				return err
			}
		}
		bench.PrintMicro(os.Stdout, byProfile[cols[0].Name], byProfile[cols[1].Name])
		fmt.Println()
		if err := writeArtifact(csvDir, "micro.csv", func(w io.Writer) error {
			for _, p := range cols {
				if err := bench.WriteMicroCSV(w, p.Name, byProfile[p.Name]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	if all || experiment == "fig1" {
		fmt.Printf("=== Figure 1: library comparison (%d ops, %s profile) ===\n", n, prof.Name)
		rows, err := bench.Fig1(n, bench.Fig1Config(prof))
		if err != nil {
			return err
		}
		bench.PrintFig1(os.Stdout, rows)
		fmt.Println()
		if err := writeArtifact(csvDir, "perf.csv", func(w io.Writer) error { return bench.WritePerfCSV(w, rows) }); err != nil {
			return err
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
		if err := writeArtifact(csvDir, "scale.csv", func(w io.Writer) error { return bench.WriteScaleCSV(w, rows) }); err != nil {
			return err
		}
	}
	return nil
}

// writeArtifact writes dir/name with write, or nothing when dir is empty
// (the flag naming the directory was not given).
func writeArtifact(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
