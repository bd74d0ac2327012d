package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// lastResult decodes the last line of a run's standard output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestWrongAnswerFailsRun corrupts the reference answers of a few solve
// points, so the program's (correct) answers disagree with them: the run
// must count those ops as failed, report correct=false and exit non-zero.
func TestWrongAnswerFailsRun(t *testing.T) {
	build := func(name string, seed int64) (workload, error) {
		w, err := newSessionDrift(seed)
		if err != nil {
			return nil, err
		}
		tampered := 0
		for i := range w.sessions {
			for p, ref := range w.sessions[i].refs {
				if ref != "" && tampered < 3 {
					w.sessions[i].refs[p] = ref + "1"
					tampered++
				}
			}
		}
		if tampered == 0 {
			t.Fatal("no solve point carries a reference answer")
		}
		return w, nil
	}
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "session-drift", "--seed", "3", "--seconds", "1"}, &stdout, &stderr, build)
	if code == 0 {
		t.Fatalf("exit code 0 with wrong answers\n%s", stdout.String())
	}
	res := lastResult(t, stdout.String())
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Fatalf("want correct=false and failed ops, got %+v", res)
	}
	if !strings.Contains(stdout.String(), "differs from the reference") {
		t.Fatalf("failure not reported:\n%s", stdout.String())
	}
}

// TestGuaranteeCheck pins the exact-rational guarantee comparison.
func TestGuaranteeCheck(t *testing.T) {
	g := guarantee(algorithms[0]) // 3/2
	if _, err := checkAnswer("3", "2", "", g, "3/2-approximation"); err != nil {
		t.Fatalf("ratio exactly 3/2 rejected: %v", err)
	}
	if _, err := checkAnswer("3000001/1000000", "2", "", g, "3/2-approximation"); err == nil {
		t.Fatal("ratio above 3/2 accepted")
	}
	if _, err := checkAnswer("3", "2", "5/2", g, "3/2-approximation"); err == nil {
		t.Fatal("makespan different from the reference accepted")
	}
	// A fallback answer is held to its reference, not to the guarantee,
	// and fails without one.
	if c, err := checkAnswer("4", "2", "4", g, "pmtn/jump/fallback"); err != nil || !c.fallback {
		t.Fatalf("fallback answer equal to its reference: %+v, %v", c, err)
	}
	if _, err := checkAnswer("4", "2", "", g, "pmtn/jump/fallback"); err == nil {
		t.Fatal("fallback answer without a reference accepted")
	}
}

// TestFleetMisroute swaps the two shards behind the in-memory transport:
// every answer then comes from the shard the ring does not own, and the
// check must report the misroute.
func TestFleetMisroute(t *testing.T) {
	w, err := newFleetCache(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	w.op(0, nil)
	if _, err := w.finish(0, nil); err != nil {
		t.Fatalf("correctly routed op: %v", err)
	}
	sh := w.tp.shards
	sh["a"], sh["b"] = sh["b"], sh["a"]
	w.op(0, nil)
	if _, err := w.finish(0, nil); err == nil || !strings.Contains(err.Error(), "misroute") {
		t.Fatalf("want a misroute error, got %v", err)
	}
}

// TestQuartilesMatchPython pins quartiles to the values of Python's
// statistics.quantiles(data, n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestSteadyNeedsBounds: without BENCHMARK.json in the working directory
// the steadiness report has nothing to compare with, so it fails before
// starting a run.
func TestSteadyNeedsBounds(t *testing.T) {
	t.Chdir(t.TempDir())
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--steady", "1", "--workload", "solve-cold", "--seconds", "1"}, &stdout, &stderr, newWorkload)
	if code == 0 || !strings.Contains(stderr.String(), "BENCHMARK.json") {
		t.Fatalf("exit code %d without BENCHMARK.json\n%s%s", code, stdout.String(), stderr.String())
	}
}
