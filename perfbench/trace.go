package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer's public API.  Spans of one op share Op; Parent is the ID of the
// enclosing span, -1 for the op's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the traced phase's spans in memory and the per-op layer
// samples derived from them.  A nil *tracer is the untraced run: every
// workload checks for nil before touching it, so the untraced timed phase
// runs no tracing code at all.
type tracer struct {
	t0    time.Time
	op    int // id of the op in flight
	root  int // span id of the op in flight
	spans []span
	// samples holds per-op values of each per-layer metric, keyed by
	// metric name (durations in microseconds, ratios as plain numbers).
	samples map[string][]float64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), samples: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: t.now()})
	return id
}

// end closes span id and returns it.
func (t *tracer) end(id int) *span {
	s := &t.spans[id]
	s.End = t.now()
	return s
}

// add records one sample of a per-layer metric.
func (t *tracer) add(metric string, v float64) {
	t.samples[metric] = append(t.samples[metric], v)
}

// addDur records a duration sample in microseconds.
func (t *tracer) addDur(metric string, d time.Duration) {
	t.add(metric, float64(d)/float64(time.Microsecond))
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetric describes one per-layer metric of the traced run.
type layerMetric struct {
	name string
	unit string
	// agg is how per-op samples combine: "p50" for timings (p90 is
	// printed beside it), "mean" for per-op counts and shares, "sum" for
	// event counts.
	agg string
}

// layerMetrics is the per-layer catalog, in BENCHMARK.json order.  A
// metric whose layer the workload never calls reports 0 with 0 samples.
var layerMetrics = []layerMetric{
	{"sched.validate_us", "us", "p50"},
	{"setupsched.prepare_us", "us", "p50"},
	{"setupsched.prepare_ns_per_job", "ns", "p50"},
	{"setupsched.search_us", "us", "p50"},
	{"setupsched.probe_ns_per_job", "ns", "p50"},
	{"setupsched.build_us", "us", "p50"},
	{"setupsched.verify_us", "us", "p50"},
	{"setupsched.probes_per_solve", "count", "mean"},
	{"lb.handler_us", "us", "p50"},
	{"lb.upstream_us", "us", "p50"},
	{"lb.self_us", "us", "p50"},
	{"lb.misroutes", "count", "sum"},
	{"serve.hit_us", "us", "p50"},
	{"serve.cold_us", "us", "p50"},
	{"serve.wire_us", "us", "p50"},
	{"serve.cache_hit_share", "share", "mean"},
	{"serve.delta_us", "us", "p50"},
	{"serve.session_solve_us", "us", "p50"},
	{"stream.solve_us", "us", "p50"},
	{"stream.warm_share", "share", "mean"},
	{"stream.probes_per_solve", "count", "mean"},
	{"go.gc_cycles_per_kop", "count", "value"},
	{"go.gc_cpu_share", "share", "value"},
	{"trace.overhead_share", "share", "value"},
}

// layerValue aggregates one metric's samples.
func layerValue(m layerMetric, xs []float64) float64 {
	switch m.agg {
	case "p50":
		return percentile(xs, 50)
	case "mean":
		return mean(xs)
	default:
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
}

// printLayerTable writes the human-readable per-layer table: p50 and p90
// of every timed layer with its sample count.
func printLayerTable(w io.Writer, t *tracer, values map[string]float64) {
	fmt.Fprintf(w, "%-32s %14s %14s %9s\n", "per-layer metric", "value", "p90", "samples")
	for _, m := range layerMetrics {
		xs := t.samples[m.name]
		p90 := ""
		if m.agg == "p50" && len(xs) > 0 {
			p90 = fmt.Sprintf("%.3f", percentile(append([]float64(nil), xs...), 90))
		}
		fmt.Fprintf(w, "%-32s %14.4f %14s %9d  %s\n", m.name, values[m.name], p90, len(xs), m.unit)
	}
}
