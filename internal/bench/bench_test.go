package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"corundum/internal/baselines/engine"
	"corundum/internal/core"
	"corundum/internal/pmem"
)

// The generators must run end to end at small scale and produce sane
// shapes; the full-scale runs happen in the repo-root benchmarks and
// corundum-bench.

func TestMicroSmall(t *testing.T) {
	rows, err := Micro(pmem.NoDelay, 2000)
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]float64{}
	for _, r := range rows {
		if r.AvgNs < 0 {
			t.Errorf("%s: negative latency", r.Op)
		}
		byOp[r.Op] = r.AvgNs
	}
	for _, op := range []string{
		"Deref", "DerefMut (the 1st time)", "DerefMut (not the 1st time)",
		"Alloc (8 B)", "Alloc (256 B)", "Alloc (4 kB)",
		"Dealloc (8 B)", "Pbox:AtomicInit (8 B)", "Prc:AtomicInit (8 B)",
		"Parc:AtomicInit (8 B)", "TxNop", "DataLog (8 B)", "DataLog (1 kB)",
		"DataLog (4 kB)", "DropLog (8 B)", "DropLog (32 kB)",
		"Pbox::pclone (8 B)", "Prc::pclone", "Parc::pclone",
		"Prc::downgrade", "Parc::downgrade", "Prc::PWeak:upgrade",
		"Parc::PWeak::upgrade", "Prc::demote", "Parc::demote",
		"Prc::VWeak::promote", "Parc::VWeak::promote",
	} {
		if _, ok := byOp[op]; !ok {
			t.Errorf("missing Table 5 row %q", op)
		}
	}
	// Shape assertions from the paper that hold regardless of hardware:
	if byOp["Deref"] >= byOp["DerefMut (the 1st time)"] {
		t.Errorf("Deref (%f) should be far cheaper than first DerefMut (%f)",
			byOp["Deref"], byOp["DerefMut (the 1st time)"])
	}
	if byOp["DerefMut (not the 1st time)"] >= byOp["DerefMut (the 1st time)"] {
		t.Errorf("later DerefMut (%f) should be cheaper than the first (%f)",
			byOp["DerefMut (not the 1st time)"], byOp["DerefMut (the 1st time)"])
	}
	if byOp["Prc::pclone"] >= byOp["Pbox::pclone (8 B)"] {
		t.Errorf("Prc::pclone (%f) only bumps a count; Pbox::pclone (%f) allocates",
			byOp["Prc::pclone"], byOp["Pbox::pclone (8 B)"])
	}
	// DropLog is constant time.
	small, big := byOp["DropLog (8 B)"], byOp["DropLog (32 kB)"]
	if big > 5*small+200 {
		t.Errorf("DropLog should be size-independent: 8B=%.0fns 32kB=%.0fns", small, big)
	}
}

// TestDataLogRowLogsItsPayload pins that Table 5's DataLog rows measure
// an undo entry of the named size: the journal-scope bytes written per
// DataLog grow with the payload and cover it.
func TestDataLogRowLogsItsPayload(t *testing.T) {
	cfg := core.Config{Size: 32 << 20, Journals: 2, JournalCap: 1 << 20, Mem: pmem.Options{Profile: pmem.NoDelay}}
	if _, err := core.Open[microRoot, microTag]("", cfg); err != nil {
		t.Fatal(err)
	}
	defer core.ClosePool[microTag]()
	var logged uint64
	core.DeviceOf[microTag]().SetOpHook(func(op pmem.Op, sc pmem.Scope, n uint64) {
		if op == pmem.OpWrite && sc == pmem.ScopeJournal {
			logged += n
		}
	})
	const ops = 64
	prev := uint64(0)
	for _, size := range []uint64{8, 1024, 4096} {
		logged = 0
		var total time.Duration
		if err := dataLogBench(size, ops, &total); err != nil {
			t.Fatal(err)
		}
		per := logged / ops
		t.Logf("DataLog (%s): %d journal bytes written per op", sizeLabel(size), per)
		if per < size || per <= prev {
			t.Errorf("DataLog (%s) wrote %d journal bytes per op (previous size %d): the row does not log its payload", sizeLabel(size), per, prev)
		}
		prev = per
	}
}

func TestFig1Small(t *testing.T) {
	rows, err := Fig1(300, engine.Config{Size: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// 5 libs x 8 bars.
	if len(rows) != 5*8 {
		t.Fatalf("got %d rows, want 40", len(rows))
	}
	libs := map[string]bool{}
	for _, r := range rows {
		libs[r.Lib] = true
		if r.Seconds <= 0 {
			t.Errorf("%s %s %s: non-positive time", r.Lib, r.Workload, r.Op)
		}
	}
	for _, want := range []string{"PMDK", "Atlas", "Mnemosyne", "go-pmem", "Corundum"} {
		if !libs[want] {
			t.Errorf("missing library %s", want)
		}
	}
	var buf bytes.Buffer
	PrintFig1(&buf, rows)
	if !strings.Contains(buf.String(), "Corundum") {
		t.Error("PrintFig1 output missing Corundum column")
	}
	var csv bytes.Buffer
	if err := WritePerfCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(csv.String(), "\n"); got != 40 {
		t.Errorf("perf.csv has %d lines, want 40", got)
	}
}

func TestFig2Small(t *testing.T) {
	rows, err := Fig2(24, 8<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // seq + 1:1..1:3
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Label != "seq" || rows[0].Speedup != 1 {
		t.Fatalf("first row should be the seq baseline: %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.Speedup <= 0 {
			t.Errorf("%s: speedup %f", r.Label, r.Speedup)
		}
	}
	var buf bytes.Buffer
	PrintFig2(&buf, rows)
	if !strings.Contains(buf.String(), "seq") {
		t.Error("PrintFig2 missing seq row")
	}
}

func TestTable2MatrixAndVerification(t *testing.T) {
	rows := Table2()
	if len(rows) != 9 {
		t.Fatalf("got %d systems", len(rows))
	}
	for _, r := range rows {
		if len(r.Checks) != len(Table2Goals) {
			t.Fatalf("%s: %d checks for %d goals", r.System, len(r.Checks), len(Table2Goals))
		}
	}
	counts, err := VerifyTable2("../check/testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []string{"PM001", "PM002", "PM003", "PM004", "PM005"} {
		if counts[code] == 0 {
			t.Errorf("pmcheck corpus verification missing %s diagnostics", code)
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Corundum-Go") {
		t.Error("matrix missing the measured row")
	}
}

func TestAblationDedup(t *testing.T) {
	rows, err := AblationDedup(800, engine.Config{Size: 32 << 20, Mem: pmem.Options{Profile: pmem.OptaneDC}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Baseline <= 0 || r.Ablated <= 0 {
			t.Fatalf("%s: non-positive timings %+v", r.Name, r)
		}
		// Fence counts are deterministic: disabling dedup can never fence
		// less, and the repeated-store pattern must fence dramatically more.
		if r.AblatedFences < r.BaselineFences {
			t.Errorf("%s: fewer fences without dedup: %d vs %d", r.Name, r.AblatedFences, r.BaselineFences)
		}
		if r.Name == "log dedup (64x same-word stores)" && r.AblatedFences < 10*r.BaselineFences {
			t.Errorf("%s: repeated stores should fence >=10x more without dedup: %d vs %d",
				r.Name, r.AblatedFences, r.BaselineFences)
		}
	}
}

func TestAblationArenas(t *testing.T) {
	rows, err := AblationArenas(24, 4<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Baseline <= 0 || rows[0].Ablated <= 0 {
		t.Fatalf("bad rows: %+v", rows)
	}
}

func TestFenceBudgetPerCommit(t *testing.T) {
	// One small transaction (one store) should cost a handful of fences:
	// the append fence, the data fence, and the idle-state fence — plus
	// allocation fences for the cell. A regression that multiplies fences
	// would break the Figure 1 shape, so pin it.
	fences, err := Fences(engine.Config{Size: 16 << 20}, func(p engine.Pool) error {
		var cell uint64
		if err := p.Tx(func(tx engine.Tx) error {
			var err error
			cell, err = tx.Alloc(8)
			return err
		}); err != nil {
			return err
		}
		before := p.Device().Stats().Fences
		if err := p.Tx(func(tx engine.Tx) error {
			return tx.Store(cell, 7)
		}); err != nil {
			return err
		}
		got := p.Device().Stats().Fences - before
		if got > 3 {
			return fmt.Errorf("single-store transaction used %d fences, want <= 3", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = fences
}
