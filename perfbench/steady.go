package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadySets is the number of sets of runs the steadiness report
// compares: two sets of the same code must agree within the bounds.
const steadySets = 2

// steadyReport runs each workload k times per set, each run a fresh
// process of this binary with its own seed, exactly as an external
// checker would, and prints every metric's median, quartiles and spread
// (interquartile distance as a share of the median), and how far the
// second set's median moved against the first.  The sets are interleaved
// run by run, so a change in the host's speed during the report shows in
// both sets' spreads rather than as a shift between them.  Both figures
// are compared with the bounds in ./BENCHMARK.json, which must exist.  It
// exits non-zero if a run fails or a figure exceeds its bound.
func steadyReport(name string, seed int64, seconds int, traced bool, k int, stdout, stderr io.Writer) int {
	names := workloadNames
	if name != "" && name != "all" {
		names = []string{name}
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: the steadiness report needs the bounds, run it from the repository root:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	bounds := map[string]benchBound{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = benchBound{m.Bound, m.Better == "higher"}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	ok := true
	for _, wl := range names {
		// values[set][metric] lists the metric's value of every run.
		values := make([]map[string][]float64, steadySets)
		for s := range values {
			values[s] = map[string][]float64{}
		}
		for i := 0; i < k; i++ {
			for s := 0; s < steadySets; s++ {
				sd := seed + int64(s*k+i)
				cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(sd, 10),
					"--seconds", strconv.Itoa(seconds), "--trace", trace)
				cmd.Stderr = stderr
				out, err := cmd.Output()
				res, info, perr := parseRun(out)
				if err != nil || perr != nil || !res.Correct {
					fmt.Fprintf(stdout, "%s seed %d: run failed (%v %v)\n", wl, sd, err, perr)
					ok = false
					continue
				}
				for m, v := range res.Metrics {
					values[s][m] = append(values[s][m], v.Value)
				}
				for m, v := range info {
					values[s][m] = append(values[s][m], v)
				}
				fmt.Fprintf(stderr, "%s set %d seed %d done\n", wl, s+1, sd)
			}
		}
		if !printSteady(stdout, wl, values, bounds) {
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

type benchBound struct {
	bound  float64
	higher bool // higher values are better
}

// parseRun reads a run's output: the "info" line and the final JSON line.
func parseRun(out []byte) (*result, map[string]float64, error) {
	var last string
	info := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if rest, found := strings.CutPrefix(line, "info "); found {
			if err := json.Unmarshal([]byte(rest), &info); err != nil {
				return nil, nil, err
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, info, nil
}

// printSteady prints the report of one workload and reports whether every
// figure is within its bound.
func printSteady(w io.Writer, wl string, values []map[string][]float64, bounds map[string]benchBound) bool {
	ok := true
	metrics := make([]string, 0, len(values[0]))
	for m := range values[0] {
		metrics = append(metrics, m)
	}
	sort.Slice(metrics, func(i, j int) bool { return reportKey(metrics[i]) < reportKey(metrics[j]) })
	fmt.Fprintf(w, "\n%s\n%-24s %4s %4s %12s %12s %12s %8s %8s %9s  %s\n",
		wl, "metric", "set", "runs", "q1", "median", "q3", "spread", "bound", "vs set 1", "verdict")
	for _, m := range metrics {
		b, bounded := bounds[m]
		var med1 float64
		for s, vs := range values {
			q1, med, q3 := quartiles(vs[m])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			if s == 0 {
				med1 = med
			}
			shift := 0.0 // how much worse than set 1, as a share of set 1
			if s > 0 && med1 != 0 {
				shift = (med - med1) / med1
				if b.higher {
					shift = -shift
				}
			}
			verdict, bound := "", ""
			if bounded {
				bound = fmt.Sprintf("%.3f", b.bound)
				switch {
				case m != "setup_s" && spread > b.bound:
					verdict, ok = "SPREAD OVER BOUND", false
				case shift > b.bound:
					verdict, ok = "SHIFT OVER BOUND", false
				case m != "setup_s" && spread > b.bound/3:
					verdict = "spread over bound/3"
				default:
					verdict = "ok"
				}
			}
			shiftCol := ""
			if s > 0 {
				shiftCol = fmt.Sprintf("%+.4f", shift)
			}
			fmt.Fprintf(w, "%-24s %4d %4d %12.5g %12.5g %12.5g %8.4f %8s %9s  %s\n",
				m, s+1, len(vs[m]), q1, med, q3, spread, bound, shiftCol, verdict)
		}
	}
	return ok
}

// reportKey orders the report alphabetically, except that wall p99 sits
// right below cpu_p99_ms so the two tails can be compared.
func reportKey(m string) string {
	if m == "wall_p99_ms" {
		return "cpu_p99_ms~"
	}
	return m
}
