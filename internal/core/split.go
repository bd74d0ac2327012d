package core

import (
	"setupsched/internal/wrap"
	"setupsched/sched"
)

// SplitEval is the outcome of the splittable 3/2-dual test (Theorem 7).
//
// For a makespan guess T the classes split into expensive (s_i > T/2) and
// cheap (s_i <= T/2).  With beta_i = ceil(2 P_i / T), the test rejects T
// (certifying T < OPT) when m*T < L_split or m < m_exp where
//
//	L_split = P(J) + sum_{cheap} s_i + sum_{exp} beta_i s_i
//	m_exp   = sum_{exp} beta_i.
type SplitEval struct {
	T        sched.Rat
	OK       bool
	MachFail bool   // rejected because m < m_exp
	Reason   string // human-readable rejection reason

	Exp  []int   // expensive class indices
	Chp  []int   // cheap class indices
	Beta []int64 // parallel to Exp
	MExp int64
	L    int64 // L_split (valid only when machine test passed)
}

// EvalSplit runs the splittable dual test in O(c) given Prep.
//
// Interval mode: when hi is non-nil the evaluation describes every T in the
// open interval (T, hi) under the precondition that no partition breakpoint
// 2 s_i and no class jump 2 P_i / g lies strictly inside; the partition is
// then decided by comparisons against hi and beta_i via floor division.
func (p *Prep) EvalSplit(T sched.Rat, hi *sched.Rat) *SplitEval {
	ev := &SplitEval{T: T}
	// Guard: OPT > s_max, so any T < s_max is rejected (T = s_max itself
	// is constructible when the load and machine tests pass, and rejecting
	// it would break the closing step's certified-rejection chain).
	if T.CmpInt(p.SMax) < 0 && hi == nil {
		ev.Reason = "T < s_max < OPT"
		return ev
	}
	expensive := func(s int64) bool {
		if hi != nil {
			return sched.R(2*s).Cmp(*hi) >= 0
		}
		return T.CmpInt(2*s) < 0
	}
	beta := func(work int64) int64 {
		if hi != nil {
			return sched.FloorDivInt(2*work, *hi) + 1
		}
		return sched.CeilDivInt(2*work, T)
	}
	for i := range p.In.Classes {
		if expensive(p.In.Classes[i].Setup) {
			ev.Exp = append(ev.Exp, i)
			b := beta(p.P[i])
			ev.Beta = append(ev.Beta, b)
			ev.MExp += b
			if ev.MExp > p.M {
				ev.MachFail = true
				ev.Reason = "m < m_exp (expensive classes need too many machines)"
				return ev
			}
		} else {
			ev.Chp = append(ev.Chp, i)
		}
	}
	// m_exp <= m established; now L_split fits in int64:
	// beta_i*s_i <= 2 P_i + s_i (since s_i <= T), so L <= 3 N, and also
	// sum beta_i s_i <= m*s_max <= MaxMachineLoadProduct.
	ev.L = p.PJ
	for _, i := range ev.Chp {
		ev.L += p.In.Classes[i].Setup
	}
	for k, i := range ev.Exp {
		ev.L += ev.Beta[k] * p.In.Classes[i].Setup
	}
	ref := T
	if hi != nil {
		// For all T' in (T, hi): m T' >= L iff m*T >= L at the infimum is
		// not required -- the closing step handles the threshold; here we
		// report the test at the supremum for bracket narrowing.
		ref = *hi
	}
	if cmpProd(p.M, ref.Num(), ev.L, ref.Den()) < 0 {
		ev.Reason = "m*T < L_split (load exceeds capacity)"
		return ev
	}
	ev.OK = true
	return ev
}

// BuildSplit constructs a feasible splittable schedule with makespan at
// most 3/2*T from an accepting evaluation (Theorem 7(ii)).
//
// Step 1 packs each expensive class i onto beta_i dedicated machines, each
// holding the setup plus at most T/2 of job load; at most one last machine
// per class stays below load T.  Step 2 wraps all cheap classes into the
// residual time of those last machines (above a reserved T/2 window for one
// cheap setup) and into gaps [T/2, 3/2T) on the m - m_exp unused machines,
// emitting compressed machine runs for the unused-machine region.
func (p *Prep) BuildSplit(ev *SplitEval) (*sched.Schedule, error) {
	if !ev.OK {
		return nil, errInternal("BuildSplit on rejected evaluation (%s)", ev.Reason)
	}
	T := ev.T
	halfT := T.Half()
	top := T.MulInt(3).DivInt(2)

	// The last step-1 machine of class i holds the setup plus the
	// remainder r_i = P_i - (beta_i - 1) T/2 in (0, T/2]; when that load
	// L stays below T, its residual gap [L + T/2, 3/2T) (above a reserved
	// T/2 window for one cheap setup) joins step 2's template.  Knowing
	// the gaps before step 1 lets step 2 run first, so each gap's slots
	// are emitted straight after its machine's step-1 slots.
	lastLoad := func(k int) sched.Rat {
		i := ev.Exp[k]
		return sched.R(p.P[i]).Sub(halfT.MulInt(ev.Beta[k] - 1)).AddInt(p.In.Classes[i].Setup)
	}
	var placed *wrap.Placement
	var tailRuns []sched.MachineRun
	if len(ev.Chp) > 0 {
		cheapGaps := make([]wrap.Gap, 0, len(ev.Exp))
		for k := range ev.Exp {
			if load := lastLoad(k); load.Cmp(T) < 0 {
				cheapGaps = append(cheapGaps, wrap.Gap{A: load.Add(halfT), B: top})
			}
		}
		items := 0
		for _, i := range ev.Chp {
			items += 1 + len(p.In.Classes[i].Jobs)
		}
		q := wrap.NewSequence(items)
		for _, i := range ev.Chp {
			q.AddBatch(i, p.In.Classes[i].Setup, p.In.Classes[i].Jobs)
		}
		tail := wrap.TailRun{Count: p.M - ev.MExp, A: halfT, B: top}
		var err error
		if placed, err = wrap.Wrap(cheapGaps, tail, q, p.setups()); err != nil {
			return nil, errInternal("splittable cheap wrap failed: %v", err)
		}
		tailRuns = placed.Tail
	}

	// Step 1 emits rows (single machines or compressed runs) of one
	// setup plus job pieces.  Each row boundary splits at most one job, so
	// a class in r rows emits at most 2r + n_i - 1 slots.  A class needs
	// at most beta_i rows, and at most 3 n_i + 3: per job at most one
	// compressed run, one row taking a T/2 piece of it and one row
	// finishing it, plus two rows capped by the machine budget and the
	// last row.
	slots, rows := 0, len(tailRuns)
	for k, i := range ev.Exp {
		n := len(p.In.Classes[i].Jobs)
		r := int(min(ev.Beta[k], int64(3*n+3)))
		slots += 2*r + n - 1
		rows += r
	}
	if placed != nil {
		for _, m := range placed.Machines {
			slots += len(m)
		}
	}
	b := sched.NewArenaBuilder(slots)
	out := &sched.Schedule{Variant: sched.Splittable, T: T, Runs: make([]sched.MachineRun, 0, rows)}

	// Step 1: expensive classes, each last machine with a gap followed by
	// the cheap slots step 2 wrapped into it.
	gap := 0
	for k, i := range ev.Exp {
		cls := &p.In.Classes[i]
		beta := ev.Beta[k]
		setup := sched.R(cls.Setup)
		jobIdx, jobLeft := 0, sched.R(cls.Jobs[0])
		for u := int64(0); u < beta; u++ {
			// Machine-configuration compression (proof of Theorem 7): a
			// job spanning many full machines emits one run of identical
			// [setup, T/2-piece] machines instead of one row per machine.
			if u < beta-1 && jobLeft.Cmp(halfT) >= 0 {
				full := jobLeft.DivInt(halfT.Num()).MulInt(halfT.Den()).Floor()
				if full > beta-1-u {
					full = beta - 1 - u
				}
				if full >= 2 {
					b.Place(sched.SlotSetup, i, -1, setup)
					b.Place(sched.SlotJob, i, jobIdx, halfT)
					out.AddRun(full, b.EndMachine())
					jobLeft = jobLeft.Sub(halfT.MulInt(full))
					if jobLeft.IsZero() && jobIdx+1 < len(cls.Jobs) {
						jobIdx++
						jobLeft = sched.R(cls.Jobs[jobIdx])
					}
					u += full - 1
					continue
				}
			}
			b.Place(sched.SlotSetup, i, -1, setup)
			cap := halfT
			if u == beta-1 {
				// Last machine takes the remainder r in (0, T/2].
				cap = sched.R(p.P[i]).Sub(halfT.MulInt(beta - 1))
			}
			for cap.Sign() > 0 && jobIdx < len(cls.Jobs) {
				take := sched.MinRat(cap, jobLeft)
				b.Place(sched.SlotJob, i, jobIdx, take)
				cap = cap.Sub(take)
				jobLeft = jobLeft.Sub(take)
				if jobLeft.IsZero() {
					jobIdx++
					if jobIdx < len(cls.Jobs) {
						jobLeft = sched.R(cls.Jobs[jobIdx])
					}
				}
			}
			if u == beta-1 && placed != nil && b.Top().Cmp(T) < 0 {
				b.PlaceSlots(placed.Machines[gap]...)
				gap++
			}
			out.AddMachine(b.EndMachine())
		}
		if jobLeft.Sign() > 0 || jobIdx < len(cls.Jobs)-1 {
			return nil, errInternal("splittable step 1 left work of class %d unplaced", i)
		}
	}

	// Step 2's tail: the unused machines.
	out.Runs = append(out.Runs, tailRuns...)
	return out, nil
}
