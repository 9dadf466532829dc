package bench

import (
	"fmt"
	"time"

	"corundum/internal/workloads/wordcount"
)

// Fig2Result is one point of Figure 2: wordcount execution time at one
// producer:consumer configuration, with speedup relative to the
// sequential baseline.
type Fig2Result struct {
	Label     string
	Producers int
	Consumers int
	Seconds   float64
	Speedup   float64
}

// A Fig2Point is one point of Figure 2: one pass of wordcount over the
// whole corpus, returning the words it counted.
type Fig2Point struct {
	Label                string
	Producers, Consumers int
	run                  func(s *wordcount.Stack, corpus []string) (int, error)
}

// Fig2Points returns Figure 2's points in print order: the "seq"
// baseline (one producer then one consumer, one goroutine), followed by
// 1:1 through 1:maxConsumers producer:consumer splits. Per-thread
// journals and allocator arenas are what make the parallel
// configurations scale.
func Fig2Points(maxConsumers int) []Fig2Point {
	points := []Fig2Point{{Label: "seq", Producers: 1, Consumers: 1, run: countSequentially}}
	for c := 1; c <= maxConsumers; c++ {
		points = append(points, Fig2Point{Label: fmt.Sprintf("1:%d", c), Producers: 1, Consumers: c,
			run: func(s *wordcount.Stack, corpus []string) (int, error) { return wordcount.Run(s, 1, c, corpus) }})
	}
	return points
}

// countSequentially is the paper's "one producer and one consumer object
// sequentially": push everything, then pop and count, in one goroutine.
func countSequentially(s *wordcount.Stack, corpus []string) (int, error) {
	for _, seg := range corpus {
		if err := s.Push(seg); err != nil {
			return 0, err
		}
	}
	local := make(map[string]int, 4096)
	for {
		text, ok, err := s.Pop()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		wordcount.CountWords(text, local)
	}
	words := 0
	for _, n := range local {
		words += n
	}
	return words, nil
}

// Fig2Input is the corpus and the persistent stack every Figure 2 point
// runs on.
type Fig2Input struct {
	stack  *wordcount.Stack
	corpus []string
}

// OpenFig2 generates a corpus of segments x segBytes and opens a stack
// with a journal for up to maxConsumers consumers.
func OpenFig2(segments, segBytes, maxConsumers int) (*Fig2Input, error) {
	s, err := wordcount.Open(wordcount.DefaultConfig(maxConsumers + 4))
	if err != nil {
		return nil, err
	}
	return &Fig2Input{stack: s, corpus: wordcount.GenerateCorpus(segments, segBytes, 2026)}, nil
}

// Close releases the stack's pool.
func (in *Fig2Input) Close() error { return in.stack.Close() }

// Time runs p once over the corpus and returns its time and the words it
// counted.
func (in *Fig2Input) Time(p Fig2Point) (time.Duration, int, error) {
	t0 := time.Now()
	words, err := p.run(in.stack, in.corpus)
	return time.Since(t0), words, err
}

// Fig2 reproduces the scalability experiment over Fig2Points, checking
// that every point counts the words the baseline counted.
func Fig2(segments, segBytes, maxConsumers int) ([]Fig2Result, error) {
	in, err := OpenFig2(segments, segBytes, maxConsumers)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	var out []Fig2Result
	var seqTime time.Duration
	seqWords := 0
	for i, p := range Fig2Points(maxConsumers) {
		d, words, err := in.Time(p)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			seqTime, seqWords = d, words
		} else if words != seqWords {
			return nil, fmt.Errorf("fig2: %s counted %d words, seq counted %d", p.Label, words, seqWords)
		}
		out = append(out, Fig2Result{
			Label:     p.Label,
			Producers: p.Producers,
			Consumers: p.Consumers,
			Seconds:   d.Seconds(),
			Speedup:   seqTime.Seconds() / d.Seconds(),
		})
	}
	return out, nil
}
