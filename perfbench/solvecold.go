package main

import (
	"context"
	"fmt"
	"math/big"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

// coldFamilies are the schedgen families of the solve-cold pool, each
// with its mean number of jobs per class at JobsPer = 8, which sizes the
// class count for a target job count.
var coldFamilies = []struct {
	name       string
	jobsPerCls float64
}{
	{"uniform", 8}, {"bigjobs", 4.5}, {"zipfclass", 7.2},
	{"expensive", 4.5}, {"ratstress", 8}, {"nearhalf", 4.5},
}

// coldSizes are the job-count tiers.  Equal thirds of the ops per tier
// put the median op inside the middle tier and the p99 inside the top
// tier, so neither percentile straddles a gap between tiers.
var coldSizes = []int{1_000, 10_000, 100_000}

// coldCopies is the number of instances per (family, tier) cell.  The
// large instances set most of a pass's time, so more of them per seed
// make the figures depend less on which instances a seed happens to draw.
const coldCopies = 3

// algorithms is the rotation of solve algorithms (auto is the exact
// 3/2-approximation).
var algorithms = []setupsched.Algorithm{setupsched.Auto, setupsched.EpsilonSearch, setupsched.TwoApprox}

// familyInstance generates one canonical-form instance of a family with
// about n jobs.  Machines are 4/5 of the classes: setup-dominated classes
// then outnumber the machines at the trivial bound, so on the expensive
// family the dual search runs its full probe sequence.
func familyInstance(family string, jobsPerCls float64, n int, seed int64) (*sched.Instance, error) {
	f, err := schedgen.ByName(family)
	if err != nil {
		return nil, err
	}
	classes := max(int(float64(n)/jobsPerCls), 1)
	in := f.Make(schedgen.Params{
		M: int64(max(classes*4/5, 1)), Classes: classes, JobsPer: 8,
		MaxSetup: 500, MaxJob: 60, Seed: seed,
	})
	return in.Canonicalize().Instance, nil
}

type coldOp struct {
	in  *sched.Instance
	v   sched.Variant
	a   setupsched.Algorithm
	g   *big.Rat
	ref string // reference makespan
}

// solveCold runs NewSolver, Solve and Verify on a pool of instances of
// 1e3 to 1e5 jobs: the core layers only, no JSON, caches, sessions or lb.
type solveCold struct {
	ops []coldOp
	ctx context.Context

	// The last op's state, kept reachable until the next op replaces it:
	// the live heap at the end of the timed phase is one prepared solver
	// and its result.
	solver *setupsched.Solver
	res    *setupsched.Result
	err    error
	clock  probeClock
}

func newSolveCold(seed int64) (*solveCold, error) {
	w := &solveCold{ctx: context.Background()}
	for si, n := range coldSizes {
		for fi, f := range coldFamilies {
			for k := 0; k < coldCopies; k++ {
				cell := si*len(coldFamilies) + fi
				in, err := familyInstance(f.name, f.jobsPerCls, n, seed*1_000_003+int64(cell*coldCopies+k))
				if err != nil {
					return nil, err
				}
				// Every copy shifts the (variant, algorithm) pair: a cell
				// covers every variant and every algorithm once, and the
				// family and the tier shift the pairs.
				v := sched.Variants[(fi+si+k)%3]
				a := algorithms[(fi+fi/3+si+k)%3]
				w.ops = append(w.ops, coldOp{in: in, v: v, a: a, g: guarantee(a)})
			}
		}
	}
	for i := range w.ops {
		o := &w.ops[i]
		s, err := setupsched.NewSolver(o.in)
		if err != nil {
			return nil, fmt.Errorf("reference solve: %w", err)
		}
		r, err := s.Solve(w.ctx, o.v, setupsched.WithAlgorithm(o.a))
		if err != nil {
			return nil, fmt.Errorf("reference solve: %w", err)
		}
		o.ref = r.Makespan.String()
	}
	return w, nil
}

func (w *solveCold) passLen() int { return len(w.ops) }

// setup is the warm-up: one untimed, checked pass over the pool.
func (w *solveCold) setup() error {
	for i := range w.ops {
		w.op(i, nil)
		if _, err := w.finish(i, nil); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

func (w *solveCold) rearm() error { return nil }

// probeClock is the benchmark's Observer: it notes when the search's last
// dual test finished, which splits Solve into search and build.
type probeClock struct {
	tr   *tracer
	last int64
}

func (p *probeClock) ProbeStarted(setupsched.Rat) {}
func (p *probeClock) ProbeFinished(setupsched.Rat, bool) {
	p.last = p.tr.now()
}
func (p *probeClock) SearchFinished(string, int) {}

func (w *solveCold) op(i int, tr *tracer) {
	o := &w.ops[i]
	w.solver, w.res = nil, nil
	if tr == nil {
		if w.err = o.in.Validate(); w.err != nil {
			return
		}
		if w.solver, w.err = setupsched.NewSolver(o.in); w.err != nil {
			return
		}
		if w.res, w.err = w.solver.Solve(w.ctx, o.v, setupsched.WithAlgorithm(o.a)); w.err != nil {
			return
		}
		w.err = setupsched.Verify(o.in, o.v, w.res)
		return
	}
	root := tr.root
	sp := tr.begin("sched.validate", root)
	w.err = o.in.Validate()
	tr.end(sp)
	if w.err != nil {
		return
	}
	sp = tr.begin("setupsched.prepare", root)
	w.solver, w.err = setupsched.NewSolver(o.in)
	tr.end(sp)
	if w.err != nil {
		return
	}
	w.clock = probeClock{tr: tr}
	sp = tr.begin("setupsched.solve", root)
	w.clock.last = tr.spans[sp].Start
	w.res, w.err = w.solver.Solve(w.ctx, o.v, setupsched.WithAlgorithm(o.a), setupsched.WithObserver(&w.clock))
	solve := tr.end(sp)
	if w.err != nil {
		return
	}
	tr.spans = append(tr.spans,
		span{Op: tr.op, ID: len(tr.spans), Parent: sp, Name: "setupsched.search", Start: solve.Start, End: w.clock.last},
		span{Op: tr.op, ID: len(tr.spans) + 1, Parent: sp, Name: "setupsched.build", Start: w.clock.last, End: solve.End})
	sp = tr.begin("setupsched.verify", root)
	w.err = setupsched.Verify(o.in, o.v, w.res)
	tr.end(sp)
}

func (w *solveCold) finish(i int, tr *tracer) (checked, error) {
	o := &w.ops[i]
	if w.err != nil {
		return checked{}, w.err
	}
	c, err := checkAnswer(w.res.Makespan.String(), w.res.LowerBound.String(), o.ref, o.g, w.res.Algorithm)
	if err != nil || tr == nil {
		return c, err
	}
	// The op's spans are the last six recorded: validate, prepare, solve,
	// search, build, verify.
	s := tr.spans[len(tr.spans)-6:]
	n := float64(o.in.NumJobs())
	tr.addDur("sched.validate_us", s[0].dur())
	tr.addDur("setupsched.prepare_us", s[1].dur())
	tr.add("setupsched.prepare_ns_per_job", float64(s[1].dur())/n)
	if p := w.res.Probes; p > 0 {
		tr.addDur("setupsched.search_us", s[3].dur())
		tr.add("setupsched.probe_ns_per_job", float64(s[3].dur())/(float64(p)*n))
	}
	tr.addDur("setupsched.build_us", s[4].dur())
	tr.addDur("setupsched.verify_us", s[5].dur())
	tr.add("setupsched.probes_per_solve", float64(w.res.Probes))
	return c, nil
}
