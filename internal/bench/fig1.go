package bench

import (
	"fmt"
	"math/rand"
	"time"

	"corundum/internal/baselines/atlas"
	"corundum/internal/baselines/corundumeng"
	"corundum/internal/baselines/engine"
	"corundum/internal/baselines/gopmem"
	"corundum/internal/baselines/mnemosyne"
	"corundum/internal/baselines/pmdk"
	"corundum/internal/pmem"
	"corundum/internal/workloads"
)

// Fig1Result is one bar of Figure 1: one library running one operation of
// one workload.
type Fig1Result struct {
	Lib      string
	Workload string
	Op       string
	Seconds  float64
}

// Libraries returns the five systems Figure 1 compares, Corundum last as
// in the paper's legend order (PMDK, Atlas, Mnemosyne, go-pmem, Corundum).
func Libraries() []engine.Lib {
	return []engine.Lib{
		pmdk.Lib{},
		atlas.Lib{},
		mnemosyne.Lib{},
		gopmem.Lib{},
		corundumeng.Lib{},
	}
}

// Fig1Config is the pool every Figure 1 library opens under prof.
func Fig1Config(prof pmem.Profile) engine.Config {
	return engine.Config{Size: 512 << 20, Mem: pmem.Options{Profile: prof}}
}

// Fig1 runs the paper's Figure 1 matrix: every workload of Fig1Workloads
// on every library, n operations per bar with identical seeded inputs.
func Fig1(n int, cfg engine.Config) ([]Fig1Result, error) {
	var out []Fig1Result
	for _, lib := range Libraries() {
		for _, w := range Fig1Workloads() {
			ds, err := w.Time(lib, cfg, n, len(w.Bars))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", lib.Name(), err)
			}
			for i, d := range ds {
				out = append(out, Fig1Result{Lib: lib.Name(), Workload: w.Name, Op: w.Bars[i].Op, Seconds: d.Seconds()})
			}
		}
	}
	return out, nil
}

// A Fig1Workload is one data structure of Figure 1 with its bars in the
// order they run. Each bar runs on the structure the bars before it
// left.
type Fig1Workload struct {
	Name string
	Bars []Fig1Bar
	open func(p engine.Pool) (fig1Map, error)
}

// A Fig1Bar is one bar of Figure 1: one pass of an operation over the
// workload's n keys (REM removes the first half of them).
type Fig1Bar struct {
	Op  string
	run func(m fig1Map, keys []uint64) error
}

// fig1Map is what the bars call on a workload's structure.
type fig1Map struct {
	insert func(k, v uint64) error
	lookup func(k uint64) (uint64, bool, error)
	remove func(k uint64) (bool, error)
}

// Fig1Workloads returns Figure 1's workloads in print order: BST (INS,
// CHK), KVStore (PUT, GET), and B+Tree (INS, CHK, REM, RAND).
func Fig1Workloads() []Fig1Workload {
	ins, chk := Fig1Bar{"INS", insertKeys}, Fig1Bar{"CHK", lookupKeys}
	return []Fig1Workload{
		{Name: "BST", Bars: []Fig1Bar{ins, chk}, open: func(p engine.Pool) (fig1Map, error) {
			t, err := workloads.NewBST(p)
			if err != nil {
				return fig1Map{}, err
			}
			return fig1Map{insert: t.Insert, lookup: t.Lookup}, nil
		}},
		{Name: "KVStore", Bars: []Fig1Bar{{"PUT", insertKeys}, {"GET", lookupKeys}}, open: func(p engine.Pool) (fig1Map, error) {
			kv, err := workloads.NewKVStore(p, 1<<14)
			if err != nil {
				return fig1Map{}, err
			}
			return fig1Map{insert: kv.Put, lookup: kv.Get}, nil
		}},
		{Name: "B+Tree", Bars: []Fig1Bar{ins, chk, {"REM", removeHalf}, {"RAND", mixedOps}}, open: func(p engine.Pool) (fig1Map, error) {
			t, err := workloads.NewBTree(p)
			if err != nil {
				return fig1Map{}, err
			}
			return fig1Map{insert: t.Insert, lookup: t.Lookup, remove: t.Remove}, nil
		}},
	}
}

// Time opens lib under cfg, builds the workload's structure, and runs its
// first bars bars over n seeded keys, returning each bar's time.
func (w Fig1Workload) Time(lib engine.Lib, cfg engine.Config, n, bars int) ([]time.Duration, error) {
	p, err := lib.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	m, err := w.open(p)
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, n)
	rng := rand.New(rand.NewSource(42))
	for i := range keys {
		keys[i] = rng.Uint64() % uint64(4*n)
	}
	ds := make([]time.Duration, bars)
	for i, bar := range w.Bars[:bars] {
		t0 := time.Now()
		if err := bar.run(m, keys); err != nil {
			return nil, fmt.Errorf("%s %s: %w", w.Name, bar.Op, err)
		}
		ds[i] = time.Since(t0)
	}
	return ds, nil
}

func insertKeys(m fig1Map, keys []uint64) error {
	for i, k := range keys {
		if err := m.insert(k, uint64(i)); err != nil {
			return err
		}
	}
	return nil
}

func lookupKeys(m fig1Map, keys []uint64) error {
	for _, k := range keys {
		if _, _, err := m.lookup(k); err != nil {
			return err
		}
	}
	return nil
}

func removeHalf(m fig1Map, keys []uint64) error {
	for _, k := range keys[:len(keys)/2] {
		if _, err := m.remove(k); err != nil {
			return err
		}
	}
	return nil
}

// mixedOps is B+Tree RAND: 50% lookup, 25% insert, 25% remove.
func mixedOps(m fig1Map, keys []uint64) error {
	n := len(keys)
	mixed := rand.New(rand.NewSource(77))
	for i := 0; i < n; i++ {
		k := mixed.Uint64() % uint64(4*n)
		switch mixed.Intn(4) {
		case 0:
			if err := m.insert(k, k); err != nil {
				return err
			}
		case 1:
			if _, err := m.remove(k); err != nil {
				return err
			}
		default:
			if _, _, err := m.lookup(k); err != nil {
				return err
			}
		}
	}
	return nil
}
