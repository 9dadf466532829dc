package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corundum/internal/baselines/corundumeng"
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

// TestTable5RowShape runs every Table 5 row that works in the micro pool
// at a small n and counts the device operations inside its named
// operation alone (the meter's window). Exact counts, unlike nanoseconds,
// hold on any host, so they pin what each row measures.
func TestTable5RowShape(t *testing.T) {
	closePool, err := OpenMicro(pmem.NoDelay)
	if err != nil {
		t.Fatal(err)
	}
	defer closePool()
	type counts struct{ writes, journalBytes, allocWrites, fences uint64 }
	const n = 64
	shape := map[string]counts{}
	for _, row := range Table5() {
		if strings.HasPrefix(row.Name, "Alloc") || strings.HasPrefix(row.Name, "Dealloc") {
			continue // a private arena the pool's hook does not see
		}
		var m meter
		var c counts
		core.DeviceOf[microTag]().SetOpHook(func(op pmem.Op, sc pmem.Scope, bytes uint64) {
			if !m.inside {
				return
			}
			switch op {
			case pmem.OpWrite:
				c.writes++
				if sc == pmem.ScopeJournal {
					c.journalBytes += bytes
				}
				if sc == pmem.ScopeAllocRedo {
					c.allocWrites++
				}
			case pmem.OpFence:
				c.fences++
			}
		})
		if err := row.run(&m, n); err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		shape[row.Name] = c
		t.Logf("%-28s %+v", row.Name, c)
	}
	core.DeviceOf[microTag]().SetOpHook(nil)

	for _, name := range []string{"Deref", "TxNop", "DerefMut (not the 1st time)"} {
		if c := shape[name]; c.writes != 0 || c.fences != 0 {
			t.Errorf("%s: %+v, want no PM writes or fences", name, c)
		}
	}
	if c := shape["DerefMut (the 1st time)"]; c.journalBytes < n*8 || c.fences != n {
		t.Errorf("DerefMut (the 1st time): %+v, want an undo entry covering the 8-byte box and one fence per op", c)
	}
	// Table 5's DataLog rows measure an undo entry of the named size: the
	// journal bytes cover the payload, and what they add to it is the same
	// at every size.
	var overhead uint64
	for i, size := range []uint64{8, 1024, 4096} {
		name := fmt.Sprintf("DataLog (%s)", sizeLabel(size))
		c := shape[name]
		if c.journalBytes < n*size || c.fences != n {
			t.Fatalf("%s: %+v, want journal bytes covering %d payload bytes and one fence per op", name, c, n*size)
		}
		if extra := c.journalBytes - n*size; i == 0 {
			overhead = extra
		} else if extra != overhead {
			t.Errorf("%s: %d journal bytes beyond the payload, DataLog (8 B) adds %d", name, extra, overhead)
		}
	}
	if small, big := shape["DropLog (8 B)"], shape["DropLog (32 kB)"]; small.journalBytes == 0 || small != big {
		t.Errorf("DropLog (8 B) %+v and DropLog (32 kB) %+v: want the same nonzero journal record at any size", small, big)
	}
	for _, name := range []string{"Prc::pclone", "Parc::pclone"} {
		if c := shape[name]; c.allocWrites != 0 {
			t.Errorf("%s: %+v, want no allocator writes: a clone only bumps a count", name, c)
		}
	}
	if c := shape["Pbox::pclone (8 B)"]; c.allocWrites == 0 {
		t.Errorf("Pbox::pclone (8 B): %+v, want allocator writes: a PBox clone allocates", c)
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

// TestVerifyTable2NamesMissingClass: a corpus that no longer exhibits
// one of the row's static classes fails verification, by name.
func TestVerifyTable2NamesMissingClass(t *testing.T) {
	dir := t.TempDir()
	entries, err := os.ReadDir("../check/testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join("../check/testdata", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "want PM002") {
			continue // drop the TxInSafe listing, the corpus's PM002 class
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err = VerifyTable2(dir)
	if err == nil || !strings.Contains(err.Error(), "PM002") || strings.Contains(err.Error(), "PM001") {
		t.Fatalf("VerifyTable2 without the PM002 listing = %v, want an error naming PM002 alone", err)
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
	p, err := corundumeng.Lib{}.Open(engine.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var cell uint64
	if err := p.Tx(func(tx engine.Tx) (err error) {
		cell, err = tx.Alloc(8)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before := p.Device().Stats().Fences
	if err := p.Tx(func(tx engine.Tx) error { return tx.Store(cell, 7) }); err != nil {
		t.Fatal(err)
	}
	if got := p.Device().Stats().Fences - before; got > 3 {
		t.Fatalf("single-store transaction used %d fences, want <= 3", got)
	}
}
