package bench

import (
	"fmt"
	"io"
	"strings"

	"corundum/internal/workloads/loc"
)

// The artifact emits micro.csv, perf.csv, and scale.csv; these writers
// reproduce those formats plus human-readable tables.

// WriteMicroCSV emits Table 5 data as micro.csv rows
// (operation,profile,avg_ns).
func WriteMicroCSV(w io.Writer, profile string, rows []MicroResult) error {
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%.1f\n", r.Op, profile, r.AvgNs); err != nil {
			return err
		}
	}
	return nil
}

// WritePerfCSV emits Figure 1 data as perf.csv rows
// (lib,workload,op,seconds).
func WritePerfCSV(w io.Writer, rows []Fig1Result) error {
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%.6f\n", r.Lib, r.Workload, r.Op, r.Seconds); err != nil {
			return err
		}
	}
	return nil
}

// WriteScaleCSV emits Figure 2 data as scale.csv rows
// (label,producers,consumers,seconds,speedup).
func WriteScaleCSV(w io.Writer, rows []Fig2Result) error {
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%.6f,%.2f\n", r.Label, r.Producers, r.Consumers, r.Seconds, r.Speedup); err != nil {
			return err
		}
	}
	return nil
}

// PrintTable2 renders the static-check matrix.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-24s", "System")
	for _, g := range Table2Goals {
		fmt.Fprintf(w, " %-14s", g)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 24+15*len(Table2Goals)))
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s", r.System)
		for _, c := range r.Checks {
			fmt.Fprintf(w, " %-14s", c)
		}
		fmt.Fprintln(w)
	}
}

// Table3 returns the lines-of-code comparison PrintTable3 renders.
func Table3() []loc.Row { return loc.Table3() }

// PrintTable3 renders the lines-of-code comparison: the Corundum-Go port
// versus an in-language PMDK-style (untyped offsets) port, next to the
// paper's Rust and C++ numbers.
func PrintTable3(w io.Writer, rows []loc.Row) {
	fmt.Fprintf(w, "%-12s %9s %19s %18s   %s\n", "App", "Go (vol)", "Corundum-Go adds", "PMDK-style adds", "paper: Rust+Corundum / C+++PMDK")
	paper := map[string]string{
		"Linked List": "192 +19 (9.9%) / 146 +45 (30.8%)",
		"Binary tree": "256 +12 (4.7%) / 208 +41 (19.7%)",
		"HashMap":     "165 +10 (6.1%) / 137 +42 (30.7%)",
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %9d %12d (%4.1f%%) %11d (%4.1f%%)   %s\n",
			r.App, r.VolatileLoC, r.AddedLines, r.AddedPercent, r.PMDKAdded, r.PMDKPercent, paper[r.App])
	}
}

// PrintMicro renders Table 5 side by side for two profiles.
func PrintMicro(w io.Writer, optane, dram []MicroResult) {
	fmt.Fprintf(w, "%-32s %14s %14s\n", "Operation", "OptaneDC (ns)", "DRAM (ns)")
	fmt.Fprintln(w, strings.Repeat("-", 62))
	byOp := map[string]float64{}
	for _, r := range dram {
		byOp[r.Op] = r.AvgNs
	}
	for _, r := range optane {
		fmt.Fprintf(w, "%-32s %14.1f %14.1f\n", r.Op, r.AvgNs, byOp[r.Op])
	}
}

// PrintFig1 renders Figure 1 with a line per bar, in Fig1Workloads
// order, and the libraries as columns.
func PrintFig1(w io.Writer, rows []Fig1Result) {
	secs := map[[3]string]float64{}
	for _, r := range rows {
		secs[[3]string{r.Lib, r.Workload, r.Op}] = r.Seconds
	}
	fmt.Fprintf(w, "%-10s %-5s", "Workload", "Op")
	for _, lib := range Libraries() {
		fmt.Fprintf(w, " %12s", lib.Name())
	}
	fmt.Fprintf(w, " %14s\n", "Corundum vs PMDK")
	for _, wl := range Fig1Workloads() {
		for _, bar := range wl.Bars {
			at := func(lib string) float64 { return secs[[3]string{lib, wl.Name, bar.Op}] }
			fmt.Fprintf(w, "%-10s %-5s", wl.Name, bar.Op)
			for _, lib := range Libraries() {
				fmt.Fprintf(w, " %11.3fs", at(lib.Name()))
			}
			if c := at("Corundum"); c > 0 {
				fmt.Fprintf(w, " %13.2fx", at("PMDK")/c)
			}
			fmt.Fprintln(w)
		}
	}
}

// PrintFig2 renders the scalability curve.
func PrintFig2(w io.Writer, rows []Fig2Result) {
	fmt.Fprintf(w, "%-6s %10s %9s\n", "Run", "Time (s)", "Speedup")
	for _, r := range rows {
		bar := strings.Repeat("#", int(r.Speedup*2))
		fmt.Fprintf(w, "%-6s %10.3f %8.2fx %s\n", r.Label, r.Seconds, r.Speedup, bar)
	}
}
