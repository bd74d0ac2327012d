package core

import (
	"setupsched/internal/wrap"
	"setupsched/sched"
)

// TwoApproxSplit is the O(n) 2-approximation for the splittable case
// (Lemma 8): wrap the whole instance as one sequence into m identical gaps
// [s_max, s_max + N/m), leaving room for any setup below each gap.
func (p *Prep) TwoApproxSplit() (*sched.Schedule, error) {
	q := wrap.NewSequence(len(p.In.Classes) + p.NJob)
	for i := range p.In.Classes {
		q.AddBatch(i, p.In.Classes[i].Setup, p.In.Classes[i].Jobs)
	}
	a := sched.R(p.SMax)
	b := a.Add(sched.RatOf(p.N, p.M))
	placed, err := wrap.Wrap(nil, wrap.TailRun{Count: p.M, A: a, B: b}, q, p.setups())
	if err != nil {
		return nil, errInternal("splittable 2-approx wrap failed: %v", err)
	}
	return &sched.Schedule{Variant: sched.Splittable, T: p.TMin(sched.Splittable), Runs: placed.Tail}, nil
}

// nfItem is one next-fit sequence element for the non-preemptive/preemptive
// 2-approximation.
type nfItem struct {
	isSetup bool
	class   int
	job     int
	length  int64
}

// TwoApproxNonPreemptive is the O(n) 2-approximation for the
// non-preemptive (and hence also preemptive) case (Lemma 9): next-fit by
// class with threshold T_min, then move every T_min-crossing item to the
// beginning of the next machine, paying one extra setup for moved jobs.
func (p *Prep) TwoApproxNonPreemptive(v sched.Variant) (*sched.Schedule, error) {
	if v == sched.Splittable {
		return nil, errInternal("TwoApproxNonPreemptive called with splittable variant")
	}
	// Trivial optimum when m >= n: one job (plus setup) per machine.
	if p.M >= int64(p.NJob) {
		return p.oneJobPerMachine(v), nil
	}
	tmin := sched.MaxRat(sched.RatOf(p.N, p.M), sched.R(p.SPT))
	// Work on the scaled threshold exactly: compare load*den vs num.
	tn, td := tmin.Num(), tmin.Den()

	// Pass 1: next-fit with threshold, keeping the crossing item.  The
	// items sit in one slice in fill order; machine u holds
	// items[starts[u]:end(u)].
	items := make([]nfItem, 0, len(p.In.Classes)+p.NJob)
	starts := make([]int, 1, p.M+1)
	load := make([]int64, 1, p.M)
	push := func(it nfItem) {
		items = append(items, it)
		cur := len(load) - 1
		load[cur] += it.length
		if cmpProd(load[cur], td, tn, 1) > 0 { // load > T_min: close machine
			starts = append(starts, len(items))
			load = append(load, 0)
		}
	}
	for i := range p.In.Classes {
		c := &p.In.Classes[i]
		if c.Setup > 0 {
			push(nfItem{isSetup: true, class: i, job: -1, length: c.Setup})
		}
		for j, t := range c.Jobs {
			push(nfItem{class: i, job: j, length: t})
		}
	}
	nm := len(load)
	if int64(nm) > p.M {
		if starts[nm-1] == len(items) { // the last machine stayed empty
			nm--
		}
		if int64(nm) > p.M {
			return nil, errInternal("2-approx next-fit used %d > m = %d machines", nm, p.M)
		}
	}
	end := func(u int) int {
		if u+1 < nm {
			return starts[u+1]
		}
		return len(items)
	}

	// Pass 2: move crossing items (the last item of every machine whose
	// load exceeds T_min) to the beginning of the next machine, with an
	// extra setup for moved jobs.  moves(u) reports whether machine u's
	// crossing item moves on, and movedSetup whether a move brings a setup.
	moves := func(u int) bool { return u < nm-1 && cmpProd(load[u], td, tn, 1) > 0 }
	movedSetup := func(it nfItem) bool { return !it.isSetup && p.In.Classes[it.class].Setup > 0 }
	slots := len(items)
	for u := 0; u < nm-1; u++ {
		if moves(u) && movedSetup(items[end(u)-1]) {
			slots++
		}
	}

	b := sched.NewArenaBuilder(slots)
	out := &sched.Schedule{Variant: v, T: tmin, Runs: make([]sched.MachineRun, 0, nm)}
	var buf []nfItem // one machine's items; scratch reused across machines
	for u := 0; u < nm; u++ {
		buf = buf[:0]
		if u > 0 && moves(u-1) {
			last := items[end(u-1)-1]
			if movedSetup(last) {
				buf = append(buf, nfItem{isSetup: true, class: last.class, job: -1, length: p.In.Classes[last.class].Setup})
			}
			buf = append(buf, last)
		}
		own := items[starts[u]:end(u)]
		if moves(u) {
			own = own[:len(own)-1]
		}
		buf = append(buf, own...)
		for _, it := range dropUselessSetups(buf) {
			if it.isSetup {
				b.Place(sched.SlotSetup, it.class, -1, sched.R(it.length))
			} else {
				b.Place(sched.SlotJob, it.class, it.job, sched.R(it.length))
			}
		}
		out.AddMachine(b.EndMachine())
	}
	return out, nil
}

// dropUselessSetups removes setup items that are not directly followed by
// a job of their class (e.g. setups stranded at the top of a machine).
func dropUselessSetups(items []nfItem) []nfItem {
	keep := items[:0]
	for k := 0; k < len(items); k++ {
		it := items[k]
		if it.isSetup && (k+1 >= len(items) || items[k+1].isSetup || items[k+1].class != it.class) {
			continue
		}
		keep = append(keep, it)
	}
	return keep
}

// oneJobPerMachine returns the trivial optimal schedule for m >= n: every
// job gets its own machine with one setup.  Its makespan is
// max_i (s_i + t_max^(i)) = OPT.
func (p *Prep) oneJobPerMachine(v sched.Variant) *sched.Schedule {
	slots := p.NJob
	for i := range p.In.Classes {
		if p.In.Classes[i].Setup > 0 {
			slots += len(p.In.Classes[i].Jobs)
		}
	}
	b := sched.NewArenaBuilder(slots)
	out := &sched.Schedule{Variant: v, T: sched.R(p.SPT), Runs: make([]sched.MachineRun, 0, p.NJob)}
	for i := range p.In.Classes {
		c := &p.In.Classes[i]
		for j := range c.Jobs {
			if c.Setup > 0 {
				b.Place(sched.SlotSetup, i, -1, sched.R(c.Setup))
			}
			b.Place(sched.SlotJob, i, j, sched.R(c.Jobs[j]))
			out.AddMachine(b.EndMachine())
		}
	}
	return out
}
