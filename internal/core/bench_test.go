package core

import (
	"testing"

	"setupsched/sched"
	"setupsched/schedgen"
)

// benchEvalPrep builds the n-job setup-heavy shape the BENCH_core
// trajectory rows use, plus a probe ladder spanning the searches'
// decision regions — the workload of one dual search's worth of guesses.
func benchEvalPrep(n int) (*Prep, []sched.Rat) {
	in := schedgen.ExpensiveSetups(schedgen.Params{
		M: int64(n/10 + 1), Classes: n / 8, JobsPer: 8,
		MaxSetup: 100_000, MaxJob: 10_000, Seed: int64(n),
	})
	p := Prepare(in)
	tmin := p.TMin(sched.NonPreemptive)
	ladder := []sched.Rat{
		sched.R(p.SPT), tmin, tmin.MulInt(2),
		sched.Mid(tmin, sched.R(p.N)), sched.R(p.N),
		sched.RatOf(2*p.N+1, 3), sched.RatOf(3*p.N+2, 5), tmin.MulInt(3),
	}
	return p, ladder
}

// BenchmarkEvalNonpWalk_n1e5 is the pre-SoA baseline: the reference
// per-job walk, kept as the differential oracle.  One op = one 8-guess
// ladder sweep.
func BenchmarkEvalNonpWalk_n1e5(b *testing.B) {
	p, ladder := benchEvalPrep(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, T := range ladder {
			p.EvalNonpRef(T)
		}
	}
}

// BenchmarkEvalNonpSoA_n1e5 is the rewritten probe: binary-search
// thresholds over per-class sorted jobs plus prefix-sum K-work lookups.
func BenchmarkEvalNonpSoA_n1e5(b *testing.B) {
	p, ladder := benchEvalPrep(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, T := range ladder {
			p.EvalNonp(T)
		}
	}
}

// BenchmarkEvalNonpScratch_n1e5 is the warm serial probe: the SoA eval
// through a reused scratch, as stream sessions and serve solves run it.
// Allocs/op must be 0 (pinned by TestEvalNonpScratchZeroAlloc).
func BenchmarkEvalNonpScratch_n1e5(b *testing.B) {
	p, ladder := benchEvalPrep(100_000)
	var sc NonpEvalScratch
	p.EvalNonpScratch(ladder[0], &sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, T := range ladder {
			p.EvalNonpScratch(T, &sc)
		}
	}
}
