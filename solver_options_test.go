package setupsched

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestProbeLimitZeroIsUnlimited pins the documented meaning of
// WithProbeLimit(0): identical to passing no limit at all, on a search
// that genuinely runs several probes.
func TestProbeLimitZeroIsUnlimited(t *testing.T) {
	solver, err := NewSolver(multiProbeInstance())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, v := range []Variant{Splittable, Preemptive, NonPreemptive} {
		want, err := solver.Solve(ctx, v)
		if err != nil {
			t.Fatalf("%v baseline: %v", v, err)
		}
		got, err := solver.Solve(ctx, v, WithProbeLimit(0))
		if err != nil {
			t.Fatalf("%v probe limit 0: %v", v, err)
		}
		if !got.Makespan.Equal(want.Makespan) || got.Probes != want.Probes {
			t.Fatalf("%v: WithProbeLimit(0) changed the solve: %d probes mk %s, want %d probes mk %s",
				v, got.Probes, got.Makespan, want.Probes, want.Makespan)
		}
	}
	// The DualTest guard must also treat 0 as "no limit requested".
	if _, _, err := solver.DualTest(ctx, NonPreemptive, Rat{}.AddInt(10), WithProbeLimit(0)); err != nil {
		t.Fatalf("DualTest rejected WithProbeLimit(0): %v", err)
	}
}

// TestEpsilonRangeBoundaries checks both open-interval boundaries exactly:
// 0, 1 and NaN are rejected with a typed error carrying the value, while
// the closest representable values inside (0, 1) are accepted and still
// honor the certified-gap contract.
func TestEpsilonRangeBoundaries(t *testing.T) {
	solver, err := NewSolver(multiProbeInstance())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, eps := range []float64{0, 1, math.Nextafter(0, -1), math.Nextafter(1, 2), math.NaN()} {
		_, err := solver.Solve(ctx, NonPreemptive, WithAlgorithm(EpsilonSearch), WithEpsilon(eps))
		var eErr *EpsilonRangeError
		if !errors.As(err, &eErr) {
			t.Fatalf("eps=%v: got %v, want *EpsilonRangeError", eps, err)
		}
		if eErr.Epsilon != eps && !(math.IsNaN(eps) && math.IsNaN(eErr.Epsilon)) {
			t.Fatalf("eps=%v: error reports %v", eps, eErr.Epsilon)
		}
	}
	for _, eps := range []float64{math.Nextafter(1, 0), 1e-9} {
		res, err := solver.Solve(ctx, NonPreemptive, WithAlgorithm(EpsilonSearch), WithEpsilon(eps))
		if err != nil {
			t.Fatalf("eps=%v rejected: %v", eps, err)
		}
		if err := Verify(solver.Instance(), NonPreemptive, res); err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		// The search converts eps to a rational tolerance with denominator
		// 2^20, so the achievable relative gap floors there: assert
		// against max(eps, 2^-20), which is exact for any eps a caller
		// can distinguish and pins the documented floor for tinier ones.
		floor := math.Max(eps, 1.0/(1<<20))
		gap := res.Guess.Sub(res.LowerBound).Float64() / res.LowerBound.Float64()
		if gap > floor*1.0001 {
			t.Fatalf("eps=%v: certified relative gap %g exceeds %g", eps, gap, floor)
		}
	}
	// A coarse epsilon must not run more probes than a fine one.
	coarse, err := solver.Solve(ctx, NonPreemptive, WithAlgorithm(EpsilonSearch), WithEpsilon(math.Nextafter(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	fine, err := solver.Solve(ctx, NonPreemptive, WithAlgorithm(EpsilonSearch), WithEpsilon(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Probes > fine.Probes {
		t.Fatalf("eps~1 ran %d probes, eps=1e-9 only %d", coarse.Probes, fine.Probes)
	}
}

// TestObserverNilIsIgnored pins that WithObserver(nil) is a no-op in any
// position, alone or surrounded by real observers.
func TestObserverNilIsIgnored(t *testing.T) {
	solver, err := NewSolver(multiProbeInstance())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := solver.Solve(ctx, NonPreemptive, WithObserver(nil))
	if err != nil {
		t.Fatalf("nil observer alone: %v", err)
	}
	if len(res.Trace) != res.Probes {
		t.Fatalf("nil observer broke the trace: %d entries for %d probes", len(res.Trace), res.Probes)
	}
	a, b := &recordingObserver{}, &recordingObserver{}
	res, err = solver.Solve(ctx, NonPreemptive,
		WithObserver(nil), WithObserver(a), WithObserver(nil), WithObserver(b), WithObserver(nil))
	if err != nil {
		t.Fatalf("nil observers interleaved: %v", err)
	}
	if len(a.probes) != res.Probes || len(b.probes) != res.Probes {
		t.Fatalf("real observers saw %d/%d probes of %d", len(a.probes), len(b.probes), res.Probes)
	}
	if _, _, err := solver.DualTest(ctx, NonPreemptive, Rat{}.AddInt(10), WithObserver(nil)); err != nil {
		t.Fatalf("DualTest with nil observer: %v", err)
	}
}

// TestDualTestRejectsSearchOnlyOptions enumerates the search-only options
// against DualTest: every non-default algorithm and every positive probe
// limit must be rejected up front (not silently ignored), while the
// remaining options keep working.
func TestDualTestRejectsSearchOnlyOptions(t *testing.T) {
	solver, err := NewSolver(multiProbeInstance())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	T := Rat{}.AddInt(10)
	for _, opt := range []struct {
		name string
		o    Option
	}{
		{"WithAlgorithm(TwoApprox)", WithAlgorithm(TwoApprox)},
		{"WithAlgorithm(EpsilonSearch)", WithAlgorithm(EpsilonSearch)},
		{"WithAlgorithm(Exact32)", WithAlgorithm(Exact32)},
		{"WithProbeLimit(1)", WithProbeLimit(1)},
		{"WithProbeLimit(64)", WithProbeLimit(64)},
	} {
		_, _, err := solver.DualTest(ctx, NonPreemptive, T, opt.o)
		if err == nil {
			t.Fatalf("DualTest accepted %s", opt.name)
		}
		if !strings.Contains(err.Error(), "do not apply to DualTest") {
			t.Fatalf("DualTest %s: unexpected error %v", opt.name, err)
		}
	}
	// WithAlgorithm(Auto) requests the default and is therefore fine, as
	// are observers; a nil Option slot is skipped.
	obs := &recordingObserver{}
	acc, _, err := solver.DualTest(ctx, NonPreemptive, T, WithAlgorithm(Auto), WithObserver(obs), nil)
	if err != nil {
		t.Fatalf("DualTest rejected default-algorithm + observer: %v", err)
	}
	if len(obs.probes) != 1 {
		t.Fatalf("observer saw %d probes for one dual test", len(obs.probes))
	}
	_ = acc
}
