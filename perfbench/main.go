// Command perfbench is the repository's end-to-end benchmark.  It drives
// three seeded workloads through the public APIs of sched, setupsched,
// stream, serve and internal/lb in one process, with one closed-loop
// client and no sockets, checks every answer, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line of
// standard output.  See README.md for the workloads, the metrics and the
// measurements behind their choice.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady 10 --workload all --seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times a run builds its program state; setup_s is
// the median, because one set-up of a few hundred milliseconds jitters
// with the host.  The state of the last set-up is the one timed.
const setupRuns = 5

// workload is one seeded traffic mix.  Its constructor generates every
// input, pre-encoded request body and reference answer; none of that is
// timed.  The timed phase repeats whole passes of passLen ops, and every
// pass issues the identical op sequence against identical state, so the
// counts a run reports repeat exactly for a seed.
type workload interface {
	// setup builds the program state the ops drive and runs the warm-up.
	// A second call replaces the state of the first.
	setup() error
	// passLen is the number of ops in one pass.
	passLen() int
	// op drives op i of the pass through the program.  It is the timed
	// part; tr is nil in the untraced run.
	op(i int, tr *tracer)
	// finish decodes and checks op i's answer (untimed) and returns its
	// certified ratio makespan/lower bound and whether it came from a
	// search's fallback path.  With a tracer it also books the op's
	// per-layer samples.
	finish(i int, tr *tracer) (checked, error)
	// rearm restores the pass-start state after a pass (untimed).
	rearm() error
}

// maxOpsPerSecond sizes the per-op sample buffers before the live-heap
// baseline is read, so their growth never counts as program state.
var maxOpsPerSecond = map[string]int{"solve-cold": 500, "fleet-cache": 5000, "session-drift": 10000}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "solve-cold":
		return newSolveCold(seed)
	case "fleet-cache":
		return newFleetCache(seed)
	case "session-drift":
		return newSessionDrift(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want solve-cold, fleet-cache or session-drift)", name)
}

var workloadNames = []string{"solve-cold", "fleet-cache", "session-drift"}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, newWorkload))
}

// realMain runs the command and returns its exit code; build constructs
// the named workload for a seed.
func realMain(args []string, stdout, stderr io.Writer, build func(string, int64) (workload, error)) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: solve-cold, fleet-cache or session-drift (all with --steady)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	steady := fs.Int("steady", 0, "steadiness report: run each workload this many times in each of two sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		return steadyReport(*name, *seed, *seconds, *trace == 1, *steady, stdout, stderr)
	}
	res, err := runOnce(build, *name, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed their checks\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is what one timed phase measured.
type phase struct {
	ops, failed int
	fallbacks   int        // ops answered by a search's fallback path
	c           counters   // summed over the passes
	passes      []counters // one reading per pass
	wallMS      []float64  // per-op wall time
	cpuMS       []float64  // per-op thread CPU time
	ratios      []float64  // per-op ratio of the first pass
	firstErr    error
}

// perPass returns the median over the passes of f(pass counters, ops per
// pass).  Every pass runs the identical ops, so a pass slowed by other
// tenants of the host shifts the median far less than it shifts a total.
func (p *phase) perPass(f func(c counters, ops float64) float64) float64 {
	opsPerPass := float64(p.ops / len(p.passes))
	xs := make([]float64, len(p.passes))
	for i, c := range p.passes {
		xs[i] = f(c, opsPerPass)
	}
	return median(xs)
}

func (p *phase) throughput() float64 {
	return p.perPass(func(c counters, ops float64) float64 { return ops / c.wall.Seconds() })
}

// runDriver owns the op loop of one run.
type runDriver struct {
	w     workload
	start time.Time
	dirty bool // a pass ran since the state was last armed
	log   io.Writer
}

// timed runs whole passes until the phase has measured at least seconds,
// appending per-op samples to p.  Counters bracket each pass, so a
// re-arm between passes is excluded from every figure.
func (d *runDriver) timed(seconds int, tr *tracer, p *phase) error {
	limit := time.Duration(seconds) * time.Second
	n := d.w.passLen()
	for p.c.wall < limit {
		if d.dirty {
			if err := d.w.rearm(); err != nil {
				return fmt.Errorf("re-arming between passes: %w", err)
			}
		}
		d.dirty = true
		first := len(p.passes) == 0
		c0 := readCounters(d.start)
		for i := 0; i < n; i++ {
			if tr != nil {
				tr.op = p.ops
				tr.root = tr.begin("op", -1)
			}
			t0 := time.Now()
			cpu0 := threadCPU()
			d.w.op(i, tr)
			cpu1 := threadCPU()
			wall := time.Since(t0)
			if tr != nil {
				tr.end(tr.root)
			}
			p.ops++
			p.wallMS = append(p.wallMS, float64(wall)/1e6)
			p.cpuMS = append(p.cpuMS, float64(cpu1-cpu0)/1e6)
			c, err := d.w.finish(i, tr)
			if c.fallback {
				p.fallbacks++
			}
			if err != nil {
				p.failed++
				if p.firstErr == nil {
					p.firstErr = fmt.Errorf("op %d of pass %d: %w", i, len(p.passes), err)
					fmt.Fprintln(d.log, "check failed:", p.firstErr)
				}
				continue
			}
			if first {
				p.ratios = append(p.ratios, c.ratio)
			}
		}
		pass := readCounters(d.start).sub(c0)
		p.c = p.c.add(pass)
		p.passes = append(p.passes, pass)
	}
	return nil
}

func runOnce(build func(string, int64) (workload, error), name string, seed int64, seconds int, traced bool, out io.Writer) (*result, error) {
	// One driver goroutine on one OS thread: per-op thread CPU time then
	// covers the whole op, and GOMAXPROCS stays at the CPU count so the
	// GC's background workers run beside it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	genStart := time.Now()
	w, err := build(name, seed)
	if err != nil {
		return nil, err
	}
	capOps := seconds * maxOpsPerSecond[name]
	p := &phase{wallMS: make([]float64, 0, capOps), cpuMS: make([]float64, 0, capOps),
		ratios: make([]float64, 0, w.passLen()), passes: make([]counters, 0, 1024)}
	var tr *tracer
	if traced {
		tr = newTracer(capOps * 2)
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %v: inputs generated in %.2fs, %d ops per pass\n",
		name, seed, seconds, traced, time.Since(genStart).Seconds(), w.passLen())
	base := liveHeap()

	setups := make([]float64, 0, setupRuns)
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// Garbage of the discarded set-ups is not the timed phase's to collect.
	runtime.GC()

	d := &runDriver{w: w, start: time.Now(), log: out}
	res := &result{Metrics: map[string]metric{}}
	if !traced {
		if err := d.timed(seconds, nil, p); err != nil {
			return nil, err
		}
		heap := float64(liveHeap()) - float64(base)
		runtime.KeepAlive(w)
		runtime.KeepAlive(p)
		wallP99 := percentile(append([]float64(nil), p.wallMS...), 99)
		m := res.Metrics
		m["throughput_ops_s"] = metric{p.throughput(), "ops/s"}
		m["latency_p50_ms"] = metric{percentile(p.wallMS, 50), "ms"}
		m["cpu_p99_ms"] = metric{percentile(p.cpuMS, 99), "ms"}
		m["cpu_ms_per_op"] = metric{p.perPass(func(c counters, ops float64) float64 { return float64(c.cpu) / 1e6 / ops }), "ms"}
		m["alloc_kib_per_op"] = metric{p.perPass(func(c counters, ops float64) float64 { return float64(c.alloc) / 1024 / ops }), "KiB"}
		m["live_heap_mib"] = metric{heap / (1 << 20), "MiB"}
		m["ratio_mean"] = metric{mean(p.ratios), "ratio"}
		m["setup_s"] = metric{median(setups), "s"}
		printEndToEnd(out, m, p, wallP99, setups)
		info, _ := json.Marshal(map[string]float64{"wall_p99_ms": wallP99, "fallback_answers": float64(p.fallbacks)})
		fmt.Fprintf(out, "info %s\n", info)
	} else {
		// The untraced half gives the tracing-overhead baseline and the Go
		// runtime figures; the traced half gives the per-layer samples.
		half := max(seconds/2, 1)
		if err := d.timed(half, nil, p); err != nil {
			return nil, err
		}
		untraced := *p
		pt := &phase{passes: make([]counters, 0, 1024)}
		tr.t0 = time.Now()
		if err := d.timed(half, tr, pt); err != nil {
			return nil, err
		}
		values := map[string]float64{}
		for _, lm := range layerMetrics {
			values[lm.name] = layerValue(lm, tr.samples[lm.name])
		}
		values["go.gc_cycles_per_kop"] = float64(untraced.c.gcCycles) / (float64(untraced.ops) / 1000)
		values["go.gc_cpu_share"] = untraced.c.gcCPU / untraced.c.cpu.Seconds()
		values["trace.overhead_share"] = 1 - pt.throughput()/untraced.throughput()
		for _, lm := range layerMetrics {
			res.Metrics[lm.name] = metric{values[lm.name], lm.unit}
		}
		printLayerTable(out, tr, values)
		fmt.Fprintf(out, "tracing overhead: untraced %.2f ops/s, traced %.2f ops/s (%d spans); %d fallback answers\n",
			untraced.throughput(), pt.throughput(), len(tr.spans), untraced.fallbacks+pt.fallbacks)
		path := fmt.Sprintf(".bench_build/traces/%s-seed%d.ndjson", name, seed)
		if err := tr.dump(path); err != nil {
			return nil, fmt.Errorf("writing the trace dump: %w", err)
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
		p.ops += pt.ops
		p.failed += pt.failed
		runtime.KeepAlive(w)
	}
	res.Attempted = p.ops
	res.Failed = p.failed
	res.Correct = p.failed == 0
	return res, nil
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func printEndToEnd(out io.Writer, m map[string]metric, p *phase, wallP99 float64, setups []float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-18s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	walls := make([]float64, len(p.passes))
	for i, c := range p.passes {
		walls[i] = c.wall.Seconds()
	}
	fmt.Fprintf(out, "%d ops in %d passes over %.2fs; %d failed; %d fallback answers; latency samples %d; wall p99 %.3f ms (information only)\nset-ups (s): %.3f\npasses (s): %.3f\n",
		p.ops, len(p.passes), p.c.wall.Seconds(), p.failed, p.fallbacks, len(p.wallMS), wallP99, setups, walls)
}
