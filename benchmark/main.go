// Command benchmark is the repository's benchmark: a load generator that
// drives a separately built corundum-server child over the wire protocol,
// and (with -trace 1) an in-process suite that times each layer's exported
// entry points. README.md in this directory describes the workloads, the
// metrics and the run shape; BENCHMARK.json at the repository root is the
// contract a driver runs it by.
//
//	go run ./benchmark -seed N [-workload name] [-seconds 15] [-trace 0|1] [-quick] [-selfcheck]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

const (
	warmup      = 3 * time.Second
	quickWindow = 500 * time.Millisecond
)

func main() {
	var (
		name      = flag.String("workload", "", "run one workload (default: all five, in order)")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed generates the same request stream")
		seconds   = flag.Int("seconds", defaultSeconds, "measured seconds per run: three windows of a third each")
		trace     = flag.Int("trace", 0, "1: traced run (per-layer metrics, the layer suite and its span file); 0: end-to-end metrics")
		quick     = flag.Bool("quick", false, "smoke run: half-second warm-up and windows")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice, back to back, and compare against the bounds")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := run(ctx, *name, *seed, *seconds, *trace != 0, *quick, *selfcheck)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed uint64, seconds int, trace, quick, selfcheck bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	todo := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []workload{*w}
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bin, err := buildServer(root)
	if err != nil {
		return err
	}
	cfg := runConfig{root: root, bin: bin, seed: seed, trace: trace,
		warmup: warmup, window: time.Duration(seconds) * time.Second / numWindows}
	if quick {
		cfg.warmup, cfg.window = quickWindow, quickWindow
	}
	if trace {
		// A traced run spends half its measured time on the load, whose
		// STATS deltas price the ledger, and half on the layer suite.
		cfg.window /= 2
		cfg.suite = numWindows * cfg.window
	}

	bad := 0
	for i := range todo {
		w := &todo[i]
		res, err := measure(ctx, w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if selfcheck {
			again, err := measure(ctx, w, cfg)
			if err != nil {
				return fmt.Errorf("%s (second run): %w", w.name, err)
			}
			if !compare(w, res, again) || !again.ok() {
				bad++
			}
		}
		if !res.ok() {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed verification, were invalid, or disagreed beyond a bound", bad)
	}
	return nil
}

// measure runs one workload once and prints it.
func measure(ctx context.Context, w *workload, cfg runConfig) (*result, error) {
	res, err := runWorkload(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := layerSuite(ctx, w, cfg, res); err != nil {
			return nil, err
		}
	}
	return res, report(w, cfg, res)
}

func (r *result) ok() bool { return r.failed == 0 && len(r.invalid) == 0 }

// report prints every metric the run has as "name value unit", then the
// result line the driver reads: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
func report(w *workload, cfg runConfig, res *result) error {
	tables := [][]metricDef{endToEnd, perLayer}
	if cfg.trace {
		// End-to-end metrics are never taken from a traced run.
		tables = tables[1:]
	}
	for _, defs := range tables {
		for _, m := range defs {
			v, ok := res.values[m.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("%s.%s %.6g %s", w.name, m.name, v, m.unit)
			if sp, ok := res.spreads[m.name]; ok {
				line += fmt.Sprintf("  (windows spread %.3f)", sp)
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("%s.attempted %d count\n%s.failed %d count\n", w.name, res.attempted, w.name, res.failed)
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "failure:", n)
	}
	for _, why := range res.invalid {
		fmt.Printf("%s: invalid: %s\n", w.name, why)
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.ok(), res.attempted, res.failed, map[string]metric{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, m := range defs {
		out.Metrics[m.name] = metric{res.values[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// compare prints both runs' end-to-end metrics side by side and whether
// they agree within each metric's bound.
func compare(w *workload, a, b *result) bool {
	pass := true
	for _, m := range endToEnd {
		x, y := a.values[m.name], b.values[m.name]
		diff := math.Abs(x-y) / math.Min(x, y)
		verdict := "PASS"
		if !(diff <= m.bound) {
			verdict, pass = "FAIL", false
		}
		fmt.Printf("selfcheck %s.%s %.6g %.6g %s  diff %.4f bound %.2f %s\n", w.name, m.name, x, y, m.unit, diff, m.bound, verdict)
	}
	return pass
}
