package setupsched

import (
	"context"
	"errors"
	"testing"

	"setupsched/schedgen"
)

// multiProbeInstance needs a genuine search (its trivial bound is
// rejected), so solves run several probes and give cancellation and
// probe-limit machinery something to interrupt.
func multiProbeInstance() *Instance {
	return &Instance{
		M: 2,
		Classes: []Class{
			{Setup: 3, Jobs: []int64{4, 5, 6}},
			{Setup: 7, Jobs: []int64{2, 2, 9}},
		},
	}
}

func TestNewSolverValidation(t *testing.T) {
	if _, err := NewSolver(nil); !errors.Is(err, ErrNilInstance) {
		t.Errorf("nil instance: got %v, want ErrNilInstance", err)
	}
	_, err := NewSolver(&Instance{M: 0})
	var vErr *ValidationError
	if !errors.As(err, &vErr) {
		t.Fatalf("invalid instance: got %T (%v), want *ValidationError", err, err)
	}
	if vErr.Unwrap() == nil || vErr.Error() != vErr.Unwrap().Error() {
		t.Errorf("ValidationError must mirror its cause, got %q", vErr.Error())
	}
}

// TestSolverReuseMatchesOneShot solves every variant under every
// algorithm twice on one shared Solver and compares against solves on a
// fresh Solver each: preparation reuse must not change any result or
// leak state between solves.
func TestSolverReuseMatchesOneShot(t *testing.T) {
	rng := []int64{3, 17}
	for _, seed := range rng {
		in := schedgen.Uniform(schedgen.Params{
			M: 3, Classes: 6, JobsPer: 5, MaxSetup: 30, MaxJob: 40, Seed: seed,
		})
		solver, err := NewSolver(in)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, v := range []Variant{Splittable, Preemptive, NonPreemptive} {
			for _, algo := range []Algorithm{Auto, TwoApprox, EpsilonSearch, Exact32} {
				want, err := solveFresh(in, v, WithAlgorithm(algo))
				if err != nil {
					t.Fatalf("%v/%v one-shot: %v", v, algo, err)
				}
				for round := 0; round < 2; round++ {
					got, err := solver.Solve(ctx, v, WithAlgorithm(algo))
					if err != nil {
						t.Fatalf("%v/%v round %d: %v", v, algo, round, err)
					}
					if !got.Makespan.Equal(want.Makespan) ||
						!got.LowerBound.Equal(want.LowerBound) ||
						!got.Guess.Equal(want.Guess) ||
						got.Algorithm != want.Algorithm ||
						got.Probes != want.Probes {
						t.Fatalf("%v/%v round %d: solver result (mk=%s lb=%s T=%s %s p=%d) != one-shot (mk=%s lb=%s T=%s %s p=%d)",
							v, algo, round,
							got.Makespan, got.LowerBound, got.Guess, got.Algorithm, got.Probes,
							want.Makespan, want.LowerBound, want.Guess, want.Algorithm, want.Probes)
					}
					if err := Verify(in, v, got); err != nil {
						t.Fatalf("%v/%v round %d: %v", v, algo, round, err)
					}
				}
			}
		}
	}
}

// cancelOnProbe cancels a context when the n-th probe starts.
type cancelOnProbe struct {
	cancel context.CancelFunc
	after  int
	seen   int
}

func (c *cancelOnProbe) ProbeStarted(Rat) {
	c.seen++
	if c.seen == c.after {
		c.cancel()
	}
}
func (c *cancelOnProbe) ProbeFinished(Rat, bool)    {}
func (c *cancelOnProbe) SearchFinished(string, int) {}

func TestCancellationMidSearch(t *testing.T) {
	in := multiProbeInstance()
	solver, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the search really needs several probes.
	res, err := solver.Solve(context.Background(), NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes < 3 {
		t.Fatalf("test instance too easy: %d probes", res.Probes)
	}

	for _, algo := range []Algorithm{Exact32, EpsilonSearch} {
		ctx, cancel := context.WithCancel(context.Background())
		obs := &cancelOnProbe{cancel: cancel, after: 2}
		got, err := solver.Solve(ctx, NonPreemptive, WithAlgorithm(algo), WithObserver(obs))
		cancel()
		if got != nil {
			t.Fatalf("%v: canceled solve returned a partial result", algo)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: error %v does not match ErrCanceled", algo, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: error %v does not unwrap to ctx.Err()", algo, err)
		}
		// The search must stop within one probe of the cancellation.
		if obs.seen > obs.after+1 {
			t.Fatalf("%v: %d probes started after cancellation at probe %d", algo, obs.seen-obs.after, obs.after)
		}
	}

	// A context that is already done never starts a probe.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solver.Solve(ctx, Splittable); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled ctx: %v", err)
	}
	if _, _, err := solver.DualTest(ctx, Splittable, Rat{}.AddInt(10)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled DualTest: %v", err)
	}
	// The solver must remain usable after a canceled solve.
	if _, err := solver.Solve(context.Background(), NonPreemptive); err != nil {
		t.Fatalf("solver unusable after cancellation: %v", err)
	}
}

func TestEpsilonValidation(t *testing.T) {
	in := multiProbeInstance()
	solver, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, -1, -3, 1, 2.5} {
		_, err := solver.Solve(context.Background(), NonPreemptive,
			WithAlgorithm(EpsilonSearch), WithEpsilon(eps))
		var eErr *EpsilonRangeError
		if !errors.As(err, &eErr) || eErr.Epsilon != eps {
			t.Errorf("eps=%v: got %v, want *EpsilonRangeError", eps, err)
		}
	}
	// Without WithEpsilon the eps-search runs at DefaultEpsilon.
	if _, err := solver.Solve(context.Background(), NonPreemptive, WithAlgorithm(EpsilonSearch)); err != nil {
		t.Errorf("default epsilon: %v", err)
	}
	// In-range epsilon still works.
	if _, err := solver.Solve(context.Background(), NonPreemptive,
		WithAlgorithm(EpsilonSearch), WithEpsilon(0.25)); err != nil {
		t.Errorf("eps=0.25: %v", err)
	}
}

func TestProbeLimit(t *testing.T) {
	solver, err := NewSolver(multiProbeInstance())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := solver.Solve(ctx, NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Solve(ctx, NonPreemptive, WithProbeLimit(1)); !errors.Is(err, ErrProbeLimit) {
		t.Fatalf("probe limit 1: got %v, want ErrProbeLimit", err)
	}
	if _, err := solver.Solve(ctx, NonPreemptive, WithProbeLimit(res.Probes)); err != nil {
		t.Fatalf("probe limit == probes needed (%d): %v", res.Probes, err)
	}
	if _, err := solver.Solve(ctx, NonPreemptive, WithProbeLimit(-1)); err == nil {
		t.Fatal("negative probe limit accepted")
	}
	// Search-only options are rejected by the single-probe DualTest.
	if _, _, err := solver.DualTest(ctx, NonPreemptive, Rat{}.AddInt(10), WithProbeLimit(3)); err == nil {
		t.Fatal("DualTest accepted WithProbeLimit")
	}
	if _, _, err := solver.DualTest(ctx, NonPreemptive, Rat{}.AddInt(10), WithAlgorithm(TwoApprox)); err == nil {
		t.Fatal("DualTest accepted WithAlgorithm")
	}
}

// recordingObserver captures the full event stream.
type recordingObserver struct {
	probes   []Probe
	finished []string
	reported int
}

func (r *recordingObserver) ProbeStarted(Rat) {}
func (r *recordingObserver) ProbeFinished(T Rat, accepted bool) {
	r.probes = append(r.probes, Probe{T: T, Accepted: accepted})
}
func (r *recordingObserver) SearchFinished(algorithm string, probes int) {
	r.finished = append(r.finished, algorithm)
	r.reported = probes
}

func TestTraceAndObserver(t *testing.T) {
	solver, err := NewSolver(multiProbeInstance())
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	res, err := solver.Solve(context.Background(), NonPreemptive, WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != res.Probes {
		t.Fatalf("trace has %d entries for %d probes", len(res.Trace), res.Probes)
	}
	if len(obs.probes) != len(res.Trace) {
		t.Fatalf("observer saw %d probes, trace has %d", len(obs.probes), len(res.Trace))
	}
	for i := range res.Trace {
		if !obs.probes[i].T.Equal(res.Trace[i].T) || obs.probes[i].Accepted != res.Trace[i].Accepted {
			t.Fatalf("probe %d: observer %+v != trace %+v", i, obs.probes[i], res.Trace[i])
		}
	}
	// The accepted guess the schedule was built for appears in the trace
	// as an accepted probe.
	found := false
	for _, p := range res.Trace {
		if p.Accepted && p.T.Equal(res.Guess) {
			found = true
		}
	}
	if !found {
		t.Fatalf("accepted guess %s not in trace %+v", res.Guess, res.Trace)
	}
	if len(obs.finished) != 1 || obs.finished[0] != res.Algorithm || obs.reported != res.Probes {
		t.Fatalf("SearchFinished: %v/%d, want [%s]/%d", obs.finished, obs.reported, res.Algorithm, res.Probes)
	}

	// DualTest feeds the same observer hooks.
	obs2 := &recordingObserver{}
	acc, _, err := solver.DualTest(context.Background(), NonPreemptive, Rat{}.AddInt(1), WithObserver(obs2))
	if err != nil || acc {
		t.Fatalf("DualTest(1) = %v, %v", acc, err)
	}
	if len(obs2.probes) != 1 || obs2.probes[0].Accepted {
		t.Fatalf("DualTest observer events: %+v", obs2.probes)
	}
	// Every paper run's trace holds exactly one entry per probe and never
	// records a guess twice.
	s := solveAllInstance(t)
	for _, r := range PaperRuns() {
		res, err := s.Solve(context.Background(), r.Variant, WithAlgorithm(r.Algorithm))
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if len(res.Trace) != res.Probes {
			t.Errorf("%s: %d trace entries for %d probes", r, len(res.Trace), res.Probes)
		}
		seen := map[string]bool{}
		for _, p := range res.Trace {
			if seen[p.T.String()] {
				t.Errorf("%s: duplicate trace entry for guess %s", r, p.T)
			}
			seen[p.T.String()] = true
		}
	}
}

// TestLowerBoundMethodMatchesLegacy: Solver.LowerBound, taken from the
// prepared state, equals the instance's own trivial bound (the one
// Verify checks) for every variant.
func TestLowerBoundMethodMatchesLegacy(t *testing.T) {
	for _, in := range []*Instance{exampleInstance(), multiProbeInstance()} {
		solver, err := NewSolver(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{Splittable, Preemptive, NonPreemptive} {
			if got, want := solver.LowerBound(v), in.LowerBound(v); !got.Equal(want) {
				t.Errorf("%v: Solver.LowerBound %s != Instance.LowerBound %s", v, got, want)
			}
		}
	}
}

// TestSolverDualTestMatchesOneShot: probes on one shared Solver match
// probes on a fresh Solver each, so preparation reuse leaks no state.
func TestSolverDualTestMatchesOneShot(t *testing.T) {
	in := multiProbeInstance()
	solver, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{Splittable, Preemptive, NonPreemptive} {
		for _, T := range []int64{1, 10, 20, 40} {
			guess := Rat{}.AddInt(T)
			accNew, sNew, errNew := solver.DualTest(context.Background(), v, guess)
			fresh, err := NewSolver(in)
			if err != nil {
				t.Fatal(err)
			}
			accOld, sOld, errOld := fresh.DualTest(context.Background(), v, guess)
			if accNew != accOld || (errNew == nil) != (errOld == nil) {
				t.Fatalf("%v T=%d: shared solver (%v,%v) != fresh solver (%v,%v)", v, T, accNew, errNew, accOld, errOld)
			}
			if accNew && !sNew.Makespan().Equal(sOld.Makespan()) {
				t.Fatalf("%v T=%d: schedule makespans differ: %s vs %s", v, T, sNew.Makespan(), sOld.Makespan())
			}
		}
	}
}
