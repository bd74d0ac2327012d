package setupsched

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"setupsched/schedgen"
)

func exampleInstance() *Instance {
	return &Instance{
		M: 3,
		Classes: []Class{
			{Setup: 4, Jobs: []int64{7, 2, 5}},
			{Setup: 1, Jobs: []int64{3, 3}},
			{Setup: 9, Jobs: []int64{6}},
		},
	}
}

// solveFresh runs one Solve on a Solver built for this call alone.
func solveFresh(in *Instance, v Variant, opts ...Option) (*Result, error) {
	s, err := NewSolver(in)
	if err != nil {
		return nil, err
	}
	return s.Solve(context.Background(), v, opts...)
}

func TestSolveAllVariantsAndAlgorithms(t *testing.T) {
	in := exampleInstance()
	for _, v := range []Variant{Splittable, Preemptive, NonPreemptive} {
		for _, algo := range []Algorithm{Auto, TwoApprox, EpsilonSearch, Exact32} {
			res, err := solveFresh(in, v, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("%v/%v: %v", v, algo, err)
			}
			if err := res.Schedule.Validate(in); err != nil {
				t.Fatalf("%v/%v: %v", v, algo, err)
			}
			limit := int64(3)
			if algo == TwoApprox {
				limit = 4
			}
			if res.Schedule.Makespan().Cmp(res.Guess.MulInt(limit).Half()) > 0 {
				t.Fatalf("%v/%v: makespan %s breaks the %d/2 * %s guarantee",
					v, algo, res.Makespan, limit, res.Guess)
			}
			if res.LowerBound.Sign() <= 0 || res.Makespan.Less(res.LowerBound) {
				t.Fatalf("%v/%v: inconsistent bounds mk=%s lb=%s", v, algo, res.Makespan, res.LowerBound)
			}
			if res.Ratio < 1.0 {
				t.Fatalf("%v/%v: ratio %f < 1", v, algo, res.Ratio)
			}
		}
	}
}

func TestSolveDefaultsToExact32(t *testing.T) {
	in := exampleInstance()
	res, err := solveFresh(in, NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Algorithm, "binsearch") {
		t.Errorf("default algorithm = %q", res.Algorithm)
	}
	if res.Ratio > 1.5+1e-12 {
		t.Errorf("exact 3/2 returned ratio bound %f", res.Ratio)
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	if _, err := solveFresh(nil, Splittable); err == nil {
		t.Error("nil instance accepted")
	}
	if _, err := solveFresh(&Instance{M: 0}, Splittable); err == nil {
		t.Error("invalid instance accepted")
	}
}

// TestLowerBoundMatchesVariant pins Solver.LowerBound on a hand example.
func TestLowerBoundMatchesVariant(t *testing.T) {
	in := exampleInstance() // N = 4+14+1+6+9+6 = 40, m=3; s_max = 9; max s+t = 15
	s, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	if lb := s.LowerBound(Splittable); !lb.Equal(Rat{}.AddInt(40).DivInt(3)) {
		t.Errorf("splittable LB = %s", lb)
	}
	if lbN := s.LowerBound(NonPreemptive); !lbN.Equal(Rat{}.AddInt(15)) {
		t.Errorf("nonpreemptive LB = %s", lbN)
	}
}

func TestDualTestAcceptAndReject(t *testing.T) {
	in := exampleInstance()
	solver, err := NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, v := range []Variant{Splittable, Preemptive, NonPreemptive} {
		// N is always accepted.
		acc, s, err := solver.DualTest(ctx, v, Rat{}.AddInt(in.N()))
		if err != nil || !acc || s == nil {
			t.Fatalf("%v: DualTest(N) = (%v, %v, %v)", v, acc, s, err)
		}
		if err := s.Validate(in); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		// A tiny guess is always rejected.
		acc, s, err = solver.DualTest(ctx, v, Rat{}.AddInt(1))
		if err != nil || acc || s != nil {
			t.Fatalf("%v: DualTest(1) = (%v, %v, %v)", v, acc, s, err)
		}
	}
	// Guard rails.
	if _, _, err := solver.DualTest(ctx, Splittable, Rat{}); err == nil {
		t.Error("zero guess accepted")
	}
	bad := Rat{}.AddInt(1).DivInt(maxDualDen * 2)
	if _, _, err := solver.DualTest(ctx, Splittable, bad.AddInt(10)); err == nil {
		t.Error("huge denominator accepted")
	}
}

// TestPublicAPIRandomized drives the public API over every generator
// family and checks the documented guarantees end to end.
func TestPublicAPIRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 40; iter++ {
		fam := schedgen.Families[iter%len(schedgen.Families)]
		in := fam.Make(schedgen.Params{
			M:        int64(1 + rng.Intn(8)),
			Classes:  1 + rng.Intn(10),
			JobsPer:  1 + rng.Intn(6),
			MaxSetup: 1 + rng.Int63n(50),
			MaxJob:   1 + rng.Int63n(80),
			Seed:     rng.Int63(),
		})
		for _, v := range []Variant{Splittable, Preemptive, NonPreemptive} {
			res, err := solveFresh(in, v)
			if err != nil {
				t.Fatalf("iter %d %s/%v: %v\n%+v", iter, fam.Name, v, err, in)
			}
			if err := res.Schedule.Validate(in); err != nil {
				t.Fatalf("iter %d %s/%v: %v", iter, fam.Name, v, err)
			}
			if res.Ratio > 1.5000001 && !strings.Contains(res.Algorithm, "fallback") {
				t.Fatalf("iter %d %s/%v: certified ratio %f > 3/2 (algo %s)",
					iter, fam.Name, v, res.Ratio, res.Algorithm)
			}
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	for a, want := range map[Algorithm]string{
		Auto: "auto", TwoApprox: "2-approximation",
		EpsilonSearch: "(3/2+eps)-approximation", Exact32: "3/2-approximation",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestVerify(t *testing.T) {
	in := exampleInstance()
	res, err := solveFresh(in, Preemptive)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(in, Preemptive, res); err != nil {
		t.Fatalf("genuine result rejected: %v", err)
	}
	// Wrong variant.
	if err := Verify(in, Splittable, res); err == nil {
		t.Error("wrong variant accepted")
	}
	// Tampered makespan claim.
	bad := *res
	bad.Makespan = bad.Makespan.AddInt(1)
	if err := Verify(in, Preemptive, &bad); err == nil {
		t.Error("tampered makespan accepted")
	}
	// Inflated lower bound claim.
	bad = *res
	bad.LowerBound = bad.Makespan.AddInt(5)
	if err := Verify(in, Preemptive, &bad); err == nil {
		t.Error("inflated lower bound accepted")
	}
	// Nil handling.
	if err := Verify(nil, Preemptive, res); err == nil {
		t.Error("nil instance accepted")
	}
	if err := Verify(in, Preemptive, nil); err == nil {
		t.Error("nil result accepted")
	}
}
