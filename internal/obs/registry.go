// Package obs is the cross-layer observability substrate: a dependency-free
// metrics registry (sharded atomic counters, gauges, fixed-bucket latency
// histograms) rendered in the Prometheus text exposition format, plus a
// lock-light bounded trace ring (Recorder) that the pmem device uses as its
// crash flight recorder.
//
// The package deliberately imports nothing else from this module, so every
// layer of the system — device, allocator, journal, pool, server — can
// record into it without import cycles.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Labels name one time series within a metric family. The zero value (nil)
// means an unlabeled series.
type Labels map[string]string

// render produces the canonical {k="v",...} suffix with keys sorted, or ""
// for an unlabeled series.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// series is one registered time series: a label set plus a sampler that
// renders its current sample lines.
type series struct {
	labels string
	write  func(w io.Writer, name, labels string)
}

// family groups every series sharing a metric name under one HELP/TYPE
// header, as the exposition format requires.
type family struct {
	name, help, typ string
	series          []series
}

// Registry holds metric families and renders them. Registration is
// expected at setup time; rendering may run concurrently with updates
// (instruments are atomic; callback metrics must be safe to call at any
// time).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order preserved for stable output
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a series, creating its family on first use. Registering
// the same (name, labels) twice is a programming error and panics, like
// redeclaring a variable.
func (r *Registry) register(name, help, typ string, labels Labels, write func(w io.Writer, name, labels string)) {
	ls := labels.render()
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	for _, s := range f.series {
		if s.labels == ls {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, ls))
		}
	}
	f.series = append(f.series, series{labels: ls, write: write})
}

// Counter registers and returns a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := newCounter()
	r.register(name, help, "counter", labels, func(w io.Writer, n, ls string) {
		fmt.Fprintf(w, "%s%s %d\n", n, ls, c.Value())
	})
	return c
}

// CounterFunc registers a counter whose value is read from fn at render
// time — used to expose counters owned by another layer (e.g. the pmem
// device's per-scope fence counts) without double accounting.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.register(name, help, "counter", labels, func(w io.Writer, n, ls string) {
		fmt.Fprintf(w, "%s%s %d\n", n, ls, fn())
	})
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", labels, func(w io.Writer, n, ls string) {
		fmt.Fprintf(w, "%s%s %s\n", n, ls, formatFloat(g.Value()))
	})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at render time
// (journal occupancy, heap bytes, fragmentation — live values with an
// authoritative owner elsewhere).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "gauge", labels, func(w io.Writer, n, ls string) {
		fmt.Fprintf(w, "%s%s %s\n", n, ls, formatFloat(fn()))
	})
}

// Histogram registers and returns a fixed-bucket histogram. Bucket bounds
// must be sorted ascending; an implicit +Inf bucket is always appended.
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", labels, func(w io.Writer, n, ls string) {
		h.writeTo(w, n, ls)
	})
	return h
}

// WritePrometheus renders every family in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			s.write(w, f.name, s.labels)
		}
	}
	return nil
}

// formatFloat renders floats the way Prometheus expects: integers without
// an exponent, everything else in compact form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
