package core

import (
	"math/rand"
	"slices"
	"testing"

	"setupsched/sched"
	"setupsched/schedgen"
)

// evalLadder returns makespan guesses exercising every decision region of
// the dual tests: below SPT, at and around the trivial bounds, random
// interior points, and non-integral rationals (the floor path).
func evalLadder(p *Prep, rng *rand.Rand) []sched.Rat {
	tmin := p.TMin(sched.NonPreemptive)
	ladder := []sched.Rat{
		sched.R(1),
		sched.R(p.SPT - 1), sched.R(p.SPT), sched.R(p.SPT + 1),
		tmin, tmin.MulInt(2), sched.R(p.N),
		sched.Mid(tmin, sched.R(p.N)),
		sched.RatOf(2*p.N+1, 3), // non-integral
	}
	for i := 0; i < 24; i++ {
		ladder = append(ladder, sched.RatOf(1+rng.Int63n(2*p.N), 1+rng.Int63n(4)))
	}
	return ladder
}

func sameNonpEval(t *testing.T, tag string, got, want *NonpEval) {
	t.Helper()
	if got.T != want.T || got.OK != want.OK || got.Reason != want.Reason ||
		got.MPrime != want.MPrime || got.L != want.L {
		t.Fatalf("%s: eval header differs:\n got %+v\nwant %+v", tag, got, want)
	}
	if !slices.Equal(got.Exp, want.Exp) {
		t.Fatalf("%s: Exp %v != %v", tag, got.Exp, want.Exp)
	}
	if !slices.Equal(got.Mi, want.Mi) {
		t.Fatalf("%s: Mi %v != %v", tag, got.Mi, want.Mi)
	}
	if !slices.Equal(got.XiPos, want.XiPos) {
		t.Fatalf("%s: XiPos %v != %v", tag, got.XiPos, want.XiPos)
	}
}

// TestEvalNonpLayoutMatchesRef pins the SoA eval (binary-search
// thresholds over sorted jobs + prefix sums) and its scratch variant to
// the original per-job walk, field for field, across the generator
// catalog.
func TestEvalNonpLayoutMatchesRef(t *testing.T) {
	for _, fam := range schedgen.Families {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				in := fam.Make(schedgen.Params{
					M: 3 + seed*3, Classes: 7 + int(seed), JobsPer: 6,
					MaxSetup: 50, MaxJob: 70, Seed: seed,
				})
				p := Prepare(in)
				rng := rand.New(rand.NewSource(seed * 7919))
				ladder := evalLadder(p, rng)
				var sc NonpEvalScratch
				for _, T := range ladder {
					want := p.EvalNonpRef(T)
					sameNonpEval(t, "soa", p.EvalNonp(T), want)
					sameNonpEval(t, "scratch", p.EvalNonpScratch(T, &sc), want)
				}
			}
		})
	}
}

// TestEvalPmtnStarMatchesWalk pins the preemptive Star-class binary
// search to a direct per-job walk under both point and interval
// predicates.
func TestEvalPmtnStarMatchesWalk(t *testing.T) {
	for _, fam := range schedgen.Families {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				in := fam.Make(schedgen.Params{
					M: 4 + seed, Classes: 8, JobsPer: 5,
					MaxSetup: 60, MaxJob: 45, Seed: seed,
				})
				p := Prepare(in)
				rng := rand.New(rand.NewSource(seed * 104729))
				for _, T := range evalLadder(p, rng) {
					hi := T.MulInt(9).Half().Half() // 9/4 T > T
					for _, mode := range []struct {
						name string
						hi   *sched.Rat
					}{{"point", nil}, {"interval", &hi}} {
						ev := p.EvalPmtn(T, mode.hi)
						if ev.MachFail {
							continue // rejected before the Star loop ran
						}
						q := &pmtnPredicates{point: mode.hi == nil, T: T}
						if mode.hi != nil {
							q.hi = *mode.hi
						}
						var star []int
						var cnts, works []int64
						for _, i := range ev.ChpMinus {
							cls := &in.Classes[i]
							var cnt, work int64
							for _, tj := range cls.Jobs {
								if q.above(2 * (cls.Setup + tj)) {
									cnt++
									work += tj
								}
							}
							if cnt > 0 {
								star = append(star, i)
								cnts = append(cnts, cnt)
								works = append(works, work)
							}
						}
						if !slices.Equal(ev.Star, star) ||
							!slices.Equal(ev.BigCnt, cnts) || !slices.Equal(ev.BigWork, works) {
							t.Fatalf("%s T=%s: star sets differ:\n got %v %v %v\nwant %v %v %v",
								mode.name, T, ev.Star, ev.BigCnt, ev.BigWork, star, cnts, works)
						}
					}
				}
			}
		})
	}
}

// TestEvalNonpScratchZeroAlloc pins the bugfix for per-probe Mi/XiPos
// allocations: repeated probes through one scratch allocate nothing.
func TestEvalNonpScratchZeroAlloc(t *testing.T) {
	in := schedgen.Families[0].Make(schedgen.Params{
		M: 16, Classes: 64, JobsPer: 32, MaxSetup: 200, MaxJob: 300, Seed: 42,
	})
	p := Prepare(in)
	var sc NonpEvalScratch
	tmin := p.TMin(sched.NonPreemptive)
	ladder := []sched.Rat{tmin, sched.Mid(tmin, sched.R(p.N)), sched.R(p.N), sched.R(p.SPT - 1)}
	p.EvalNonpScratch(ladder[0], &sc) // warm the scratch
	if n := testing.AllocsPerRun(100, func() {
		for _, T := range ladder {
			p.EvalNonpScratch(T, &sc)
		}
	}); n != 0 {
		t.Fatalf("EvalNonpScratch allocates %v per run, want 0", n)
	}
}

// FuzzEvalNonpLayout cross-checks the SoA eval against the reference walk
// on fuzzer-shaped instances and guesses.
func FuzzEvalNonpLayout(f *testing.F) {
	f.Add(int64(3), int64(2), uint8(4), uint8(3), int64(7), int64(1))
	f.Add(int64(1), int64(0), uint8(1), uint8(1), int64(2), int64(3))
	f.Add(int64(9), int64(40), uint8(6), uint8(9), int64(1000), int64(2))
	f.Fuzz(func(t *testing.T, m, setupBase int64, classes, jobsPer uint8, tNum, tDen int64) {
		if m < 1 || m > 1<<20 || classes == 0 || jobsPer == 0 {
			t.Skip()
		}
		if setupBase < 0 || setupBase > 1<<30 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(setupBase ^ tNum ^ int64(classes)))
		in := &sched.Instance{M: m}
		for i := 0; i < int(classes); i++ {
			cl := sched.Class{Setup: setupBase + rng.Int63n(setupBase+13)}
			for j := 0; j < int(jobsPer); j++ {
				cl.Jobs = append(cl.Jobs, 1+rng.Int63n(97))
			}
			in.Classes = append(in.Classes, cl)
		}
		if err := in.Validate(); err != nil {
			t.Skip()
		}
		p := Prepare(in)
		if tDen < 1 {
			tDen = 1
		}
		if tNum < 1 {
			tNum = 1
		}
		T := sched.RatOf(tNum%(2*p.N)+1, tDen%7+1)
		want := p.EvalNonpRef(T)
		sameNonpEval(t, "soa", p.EvalNonp(T), want)
		var sc NonpEvalScratch
		sameNonpEval(t, "scratch", p.EvalNonpScratch(T, &sc), want)
	})
}
