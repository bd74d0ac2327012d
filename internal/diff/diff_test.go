package diff

import (
	"context"
	"errors"
	"strings"
	"testing"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

// TestEveryFamilyEveryProfileHoldsGuarantees is the tier-1 face of the
// harness: a table over the full schedgen catalog and the standard size
// ladder, a few seeds each, asserting zero violations.
func TestEveryFamilyEveryProfileHoldsGuarantees(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 2
	}
	for _, fam := range schedgen.Families {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			t.Parallel()
			for _, profile := range DefaultProfiles() {
				for seed := int64(0); seed < seeds; seed++ {
					p := profile.Params
					p.Seed = seed
					in := fam.Make(p)
					rep, err := CheckInstance(context.Background(), in, 0)
					if err != nil {
						t.Fatalf("%s seed %d: %v", profile.Name, seed, err)
					}
					for _, v := range rep.Violations {
						t.Errorf("%s seed %d (fp %.12s): %s", profile.Name, seed, rep.Fingerprint, v)
					}
					if len(rep.Runs) != len(Specs(0)) {
						t.Fatalf("%s seed %d: %d runs for %d specs", profile.Name, seed, len(rep.Runs), len(Specs(0)))
					}
				}
			}
		})
	}
}

// TestTinyProfileHasExactReferences pins that the "tiny" profile really
// exercises the exhaustive cross-check, not just certified bounds.
func TestTinyProfileHasExactReferences(t *testing.T) {
	tiny := DefaultProfiles()[0]
	if tiny.Name != "tiny" {
		t.Fatalf("first profile is %q, want tiny", tiny.Name)
	}
	exactNonp, exactSplit := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		p := tiny.Params
		p.Seed = seed
		rep, err := CheckInstance(context.Background(), schedgen.Uniform(p), 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OptNonp >= 0 {
			exactNonp++
		}
		if rep.HasOptSplit {
			exactSplit++
		}
	}
	if exactNonp < 8 || exactSplit < 8 {
		t.Fatalf("tiny profile produced only %d/10 exact nonp and %d/10 exact split references",
			exactNonp, exactSplit)
	}
}

// TestBudgetedExactReferences pins the branch-and-bound reference path:
// with a node budget configured, instances beyond the exhaustive gate
// gain either a true optimum or a certified bracket, the resulting extra
// checks hold, and on tiny instances the B&B optimum is cross-pinned
// against the exhaustive one inside the harness itself.
func TestBudgetedExactReferences(t *testing.T) {
	t.Parallel()
	const budget = 400_000
	// Tiny: both references compute; the harness pins them equal.
	tiny := DefaultProfiles()[0].Params
	tiny.Seed = 2
	rep, err := CheckInstanceBudget(context.Background(), schedgen.Uniform(tiny), 0, 1, budget)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OptNonp < 0 {
		t.Fatal("tiny instance got no exact reference")
	}
	if rep.NonpLo != rep.OptNonp || rep.NonpHi != rep.OptNonp {
		t.Errorf("converged B&B bracket [%d, %d] != optimum %d", rep.NonpLo, rep.NonpHi, rep.OptNonp)
	}
	for _, v := range rep.Violations {
		t.Errorf("tiny: %s", v)
	}

	// Small profile: beyond the exhaustive gate, so any exact reference can
	// only come from the branch-and-bound backend.
	small := DefaultProfiles()[1].Params
	refs, brackets := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		p := small
		p.Seed = seed
		in := schedgen.Uniform(p)
		rep, err := CheckInstanceBudget(context.Background(), in, 0, 1, budget)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d (fp %.12s): %s", seed, rep.Fingerprint, v)
		}
		switch {
		case rep.OptNonp >= 0:
			refs++
		case rep.NonpLo >= 1:
			brackets++
			if rep.NonpLo > rep.NonpHi {
				t.Errorf("seed %d: inverted bracket [%d, %d]", seed, rep.NonpLo, rep.NonpHi)
			}
		}
	}
	if refs+brackets < 4 {
		t.Fatalf("only %d/6 small instances got a B&B reference or bracket", refs+brackets)
	}
	if refs == 0 {
		t.Error("no small instance converged to a true optimum within the budget")
	}
}

// TestHarnessDetectsGuaranteeViolation feeds checkRun an impossible
// guarantee to prove the harness can actually fail (it is not vacuously
// green).
func TestHarnessDetectsGuaranteeViolation(t *testing.T) {
	in := schedgen.Uniform(schedgen.Params{M: 3, Classes: 4, JobsPer: 2, MaxSetup: 12, MaxJob: 16, Seed: 1})
	solver, err := setupsched.NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), sched.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LowerBound.Less(res.Makespan) {
		t.Skipf("instance solved to optimality (ratio 1), pick another seed")
	}
	spec := Spec{Name: "nonp/impossible", Variant: sched.NonPreemptive,
		Algorithm: setupsched.Exact32, GuarNum: 1, GuarDen: 1}
	rep := &Report{OptNonp: -1}
	checkRun(rep, in, AlgoRun{Spec: spec, Makespan: res.Makespan, Lower: res.LowerBound,
		RatioVsLB: res.Ratio}, res)
	if len(rep.Violations) == 0 {
		t.Fatal("guarantee 1.0 not flagged on a ratio > 1 result")
	}
	if !strings.Contains(rep.Violations[0], "exceeds guarantee") {
		t.Fatalf("unexpected violation: %s", rep.Violations[0])
	}
}

// TestHarnessDetectsCorruptResult proves Verify failures and unsound
// exact references surface as violations.
func TestHarnessDetectsCorruptResult(t *testing.T) {
	in := schedgen.Uniform(schedgen.Params{M: 3, Classes: 4, JobsPer: 2, MaxSetup: 12, MaxJob: 16, Seed: 2})
	solver, err := setupsched.NewSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), sched.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	spec := Specs(0)[8] // nonp/exact32
	if spec.Name != "nonp/exact32" {
		t.Fatalf("spec table order changed: %s", spec.Name)
	}
	run := AlgoRun{Spec: spec, Makespan: res.Makespan, Lower: res.LowerBound, RatioVsLB: res.Ratio}

	// A lied-about makespan must be caught by the Verify re-check.
	corrupt := *res
	corrupt.Makespan = corrupt.Makespan.AddInt(1)
	rep := &Report{OptNonp: -1}
	checkRun(rep, in, run, &corrupt)
	if len(rep.Violations) == 0 || !strings.Contains(rep.Violations[0], "Verify rejected") {
		t.Fatalf("corrupt makespan not flagged: %v", rep.Violations)
	}

	// An exact optimum below the certified bound means an unsound
	// certificate (here the "exact optimum" is the planted lie).
	rep = &Report{OptNonp: res.LowerBound.Ceil() - 1}
	checkRun(rep, in, run, res)
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "unsound certificate") {
			found = true
		}
	}
	if !found {
		t.Fatalf("unsound certificate not flagged: %v", rep.Violations)
	}

	// A trace that misses a probe, and a search that probes one guess
	// twice, are both flagged.
	if len(res.Trace) < 2 {
		t.Fatalf("calibration solve recorded %d probes, need >= 2", len(res.Trace))
	}
	short := *res
	short.Trace = res.Trace[1:]
	rep = &Report{OptNonp: -1}
	checkRun(rep, in, run, &short)
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "trace has") {
		t.Fatalf("short trace not flagged: %v", rep.Violations)
	}
	dup := *res
	dup.Trace = append(append([]setupsched.Probe(nil), res.Trace...), res.Trace[0])
	dup.Probes++
	rep = &Report{OptNonp: -1}
	checkRun(rep, in, run, &dup)
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "probed twice") {
		t.Fatalf("repeated probe not flagged: %v", rep.Violations)
	}
}

// TestRelaxationChainDetection plants a preemptive makespan below a
// splittable certified bound and expects the chain check to fire.
func TestRelaxationChainDetection(t *testing.T) {
	rep := &Report{
		Runs: []AlgoRun{
			{Spec: Spec{Name: "split/exact32", Variant: sched.Splittable}, Lower: sched.R(10), Makespan: sched.R(12)},
			{Spec: Spec{Name: "pmtn/exact32", Variant: sched.Preemptive}, Lower: sched.R(5), Makespan: sched.R(9)},
		},
	}
	checkRelaxationChain(rep)
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "relaxation chain broken") {
		t.Fatalf("chain violation not flagged: %v", rep.Violations)
	}
}

func TestRunSweepAggregates(t *testing.T) {
	fams, err := schedgen.Select("uniform,nearhalf,ratstress")
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := ProfilesByNames("tiny,small")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(context.Background(), Config{
		Families: fams, Profiles: profiles, Seeds: 3, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantInstances := int64(len(fams) * len(profiles) * 3)
	if sum.Instances != wantInstances {
		t.Fatalf("swept %d instances, want %d", sum.Instances, wantInstances)
	}
	if sum.Solves != wantInstances*int64(len(Specs(0))) {
		t.Fatalf("%d solves for %d instances", sum.Solves, sum.Instances)
	}
	if len(sum.Violations) != 0 {
		t.Fatalf("violations: %v", sum.Violations)
	}
	if sum.ExactNonp == 0 || sum.ExactSplit == 0 {
		t.Fatal("sweep never reached an exact reference")
	}
	for _, spec := range Specs(0) {
		r := sum.MaxRatioVsLB[spec.Name]
		if r < 1 || r > spec.Guarantee()+1e-9 {
			t.Fatalf("%s: worst ratio %f outside [1, %f]", spec.Name, r, spec.Guarantee())
		}
	}
}

func TestRunRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum, err := Run(ctx, Config{Seeds: 1000, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v", err)
	}
	if sum.Instances > 64 {
		t.Fatalf("canceled sweep still checked %d instances", sum.Instances)
	}
}

func TestProfilesByNames(t *testing.T) {
	if _, err := ProfilesByNames("bogus"); err == nil {
		t.Error("unknown profile accepted")
	}
	got, err := ProfilesByNames("medium,tiny")
	if err != nil || len(got) != 2 || got[0].Name != "medium" || got[1].Name != "tiny" {
		t.Errorf("ProfilesByNames(medium,tiny) = %v, %v", got, err)
	}
	all, err := ProfilesByNames("all")
	if err != nil || len(all) != len(DefaultProfiles()) {
		t.Errorf("ProfilesByNames(all) = %d profiles, %v", len(all), err)
	}
}

func TestViolationStringCarriesReproduction(t *testing.T) {
	v := Violation{Family: "zipf", Profile: "small", Seed: 42,
		Fingerprint: "abcdef0123456789", Msg: "boom"}
	s := v.String()
	for _, want := range []string{"zipf", "small", "seed=42", "abcdef012345", "boom"} {
		if !strings.Contains(s, want) {
			t.Fatalf("violation string %q missing %q", s, want)
		}
	}
}
