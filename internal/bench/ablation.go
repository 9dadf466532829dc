package bench

import (
	"time"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/baselines/engine"
	"corundum/internal/workloads/wordcount"
)

// The ablation studies quantify two of DESIGN.md's design choices:
//
//  1. log-on-first-DerefMut deduplication: the paper notes Corundum "only
//     logs the last one" when borrow_mut is called per link. AblationDedup
//     measures the same workloads with deduplication disabled (every store
//     logs), which is the go-pmem/Atlas discipline.
//  2. per-thread journals and allocator arenas: AblationArenas runs the
//     wordcount workload over pools configured with 1 journal (every
//     transaction serializes on one journal and one arena) versus many.

// AblationResult is one measurement pair. Fence counts are deterministic
// (the emulated device counts them), so they isolate the protocol effect
// from scheduler noise; seconds give the wall-clock view.
type AblationResult struct {
	Name           string
	Baseline       float64 // seconds with the design choice enabled (Corundum)
	Ablated        float64 // seconds with it disabled
	BaselineFences uint64
	AblatedFences  uint64
}

// AblationDedup measures insert workloads and a repeated-store
// transaction with and without undo-log deduplication. The tree workloads
// mostly store to distinct offsets per transaction, so dedup helps little
// there — which is itself a finding; the repeated-store case (the
// DerefMut-in-a-loop pattern of Listing 1) is where the paper's
// log-on-first-touch rule removes almost all logging.
func AblationDedup(n int, cfg engine.Config) ([]AblationResult, error) {
	// The tree cases are Figure 1's INS bars over the keys i·2654435761
	// mod 4n (shifted by one for the B+Tree).
	insert := func(w Fig1Workload, shift uint64) func(engine.Pool) (func() error, error) {
		return func(p engine.Pool) (func() error, error) {
			m, err := w.open(p)
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(i)*2654435761%uint64(4*n) + shift
			}
			return func() error { return insertKeys(m, keys) }, err
		}
	}
	// Repeated stores to one word in one transaction, n/10 transactions.
	repeated := func(p engine.Pool) (func() error, error) {
		var cell uint64
		err := p.Tx(func(tx engine.Tx) (err error) {
			cell, err = tx.Alloc(8)
			return err
		})
		return func() error {
			for i := 0; i < n/10; i++ {
				if err := p.Tx(func(tx engine.Tx) error {
					for k := 0; k < 64; k++ {
						if err := tx.Store(cell, uint64(k)); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		}, err
	}
	ws := Fig1Workloads()
	cases := []struct {
		name    string
		cfg     engine.Config
		prepare func(engine.Pool) (func() error, error)
	}{
		{"log dedup (BST INS)", cfg, insert(ws[0], 0)},
		{"log dedup (B+Tree INS)", cfg, insert(ws[2], 1)},
		{"log dedup (64x same-word stores)", engine.Config{Size: 16 << 20, Mem: cfg.Mem}, repeated},
	}
	var out []AblationResult
	for _, c := range cases {
		r := AblationResult{Name: c.name}
		var err error
		if r.Baseline, r.BaselineFences, err = measureWithFences(corundumeng.Lib{}, c.cfg, c.prepare); err != nil {
			return nil, err
		}
		if r.Ablated, r.AblatedFences, err = measureWithFences(corundumeng.Lib{NoDedup: true}, c.cfg, c.prepare); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// measureWithFences opens a pool of lib, readies it with prepare, and
// returns the seconds and the fences the body prepare returned takes.
func measureWithFences(lib engine.Lib, cfg engine.Config, prepare func(engine.Pool) (func() error, error)) (float64, uint64, error) {
	p, err := lib.Open(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer p.Close()
	body, err := prepare(p)
	if err != nil {
		return 0, 0, err
	}
	f0, t0 := p.Device().Stats().Fences, time.Now()
	err = body()
	return time.Since(t0).Seconds(), p.Device().Stats().Fences - f0, err
}

// AblationArenas measures the wordcount workload with many journals/arenas
// (the paper's per-thread design) versus a single shared one.
func AblationArenas(segments, segBytes, consumers int) ([]AblationResult, error) {
	corpus := wordcount.GenerateCorpus(segments, segBytes, 7)
	measure := func(journals int) (float64, error) {
		s, err := wordcount.Open(wordcount.DefaultConfig(journals))
		if err != nil {
			return 0, err
		}
		defer s.Close()
		t0 := time.Now()
		if _, err := wordcount.Run(s, 1, consumers, corpus); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	}
	many, err := measure(consumers + 4)
	if err != nil {
		return nil, err
	}
	one, err := measure(1)
	if err != nil {
		return nil, err
	}
	return []AblationResult{
		{Name: "per-thread journals (wordcount 1:N)", Baseline: many, Ablated: one},
	}, nil
}
