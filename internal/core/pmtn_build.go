package core

import (
	"sort"

	"setupsched/internal/wrap"
	"setupsched/sched"
)

// piece is a (possibly fractional) part of a job.
type piece struct {
	job    int
	length sched.Rat
}

// cheapBatch is one class's contribution to the nice instance's cheap wrap
// sequence.
type cheapBatch struct {
	class  int
	pieces []piece
}

// kItem is one job piece destined for the bottom of the large machines.
type kItem struct {
	class  int
	job    int
	length sched.Rat
}

// BuildPmtn constructs a feasible preemptive schedule with makespan at most
// 3/2*T from an accepting point evaluation (Theorem 5(ii), Algorithm 3).
//
// The I0exp classes occupy one large machine each, placed at [T/2, T/2+s+P).
// The knapsack/greedy decision of the evaluation splits the I-chp load into
// a part that joins the nice instance on the other m-l machines and the
// set K placed at the bottoms [0, T/2) of the large machines.  Job pieces
// in K run strictly below T/2 while their sibling pieces in the nice part
// run at or above T/2, so no job ever runs in parallel with itself.
func (p *Prep) BuildPmtn(ev *PmtnEval) (*sched.Schedule, error) {
	if !ev.OK {
		return nil, errInternal("BuildPmtn on rejected evaluation (%s)", ev.Reason)
	}
	T := ev.T
	if ev.RefNum != T.Num() || ev.RefDen != T.Den() {
		return nil, errInternal("BuildPmtn on interval-mode evaluation")
	}
	tn, td := T.Num(), T.Den()
	uDen := 2 * td
	uRat := func(u int64) sched.Rat { return sched.RatOf(u, uDen) }
	halfT := T.Half()
	quarterT := T.Quarter()
	l := len(ev.ExpZero) // large machines, one I0exp class each

	// Step 2: distribute the I-chp load between the nice instance and K.
	var niceCheap []cheapBatch
	var kPieces []kItem
	for _, i := range ev.ChpPlus {
		niceCheap = append(niceCheap, fullBatch(p, i))
	}
	splitClass := -1
	if ev.CaseA {
		splitClass = splitClassOf(ev)
		inStar := make(map[int]int, len(ev.Star))
		for k, i := range ev.Star {
			inStar[i] = k
		}
		for k, i := range ev.Star {
			cls := &p.In.Classes[i]
			switch {
			case ev.Sel[k]:
				niceCheap = append(niceCheap, fullBatch(p, i))
			case k == ev.SplitPos:
				nb, kp, err := splitStarClass(p, ev, i)
				if err != nil {
					return nil, err
				}
				niceCheap = append(niceCheap, nb)
				kPieces = append(kPieces, kp...)
			default:
				// Unselected: obligatory pieces j(2) to the nice part,
				// j(1) pieces and small jobs to K.
				var nice []piece
				for j, t := range cls.Jobs {
					if isBigFor(cls.Setup, t, tn, td) {
						nice = append(nice, piece{j, uRat(2*(cls.Setup+t)*td - tn)})
						kPieces = append(kPieces, kItem{i, j, uRat(tn - 2*cls.Setup*td)})
					} else {
						kPieces = append(kPieces, kItem{i, j, sched.R(t)})
					}
				}
				niceCheap = append(niceCheap, cheapBatch{class: i, pieces: nice})
			}
		}
		for _, i := range ev.ChpMinus {
			if _, ok := inStar[i]; !ok {
				kPieces = append(kPieces, wholeK(p, i)...)
			}
		}
	} else {
		splitClass = ev.BSplit
		for _, i := range ev.Star {
			niceCheap = append(niceCheap, fullBatch(p, i))
		}
		for _, i := range ev.NiceRest {
			niceCheap = append(niceCheap, fullBatch(p, i))
		}
		if ev.BSplit >= 0 {
			cls := &p.In.Classes[ev.BSplit]
			budget := ev.BSplitU
			var nice []piece
			for j, t := range cls.Jobs {
				maxU := 2 * t * td
				take := maxU
				if take > budget {
					take = budget
				}
				budget -= take
				if take > 0 {
					nice = append(nice, piece{j, uRat(take)})
				}
				if take < maxU {
					kPieces = append(kPieces, kItem{ev.BSplit, j, uRat(maxU - take)})
				}
			}
			if budget != 0 {
				return nil, errInternal("case-B split budget not exhausted (%d units left)", budget)
			}
			niceCheap = append(niceCheap, cheapBatch{class: ev.BSplit, pieces: nice})
		}
		for _, i := range ev.KRest {
			kPieces = append(kPieces, wholeK(p, i)...)
		}
	}

	// Step 4 and the nice instance's cheap wrap (its step 3) come first:
	// they fix what joins the large machines and machine mu before those
	// are emitted, so every machine is emitted once, in one arena.
	bottoms, err := p.placeK(l, kPieces, splitClass, halfT, quarterT)
	if err != nil {
		return nil, err
	}
	nice := &niceInstance{T: T, expPlus: ev.ExpPlus, gamma: ev.Gamma, expMinus: ev.ExpMinus}
	if err := p.wrapNiceCheap(nice, p.M-int64(l), niceCheap); err != nil {
		return nil, err
	}

	slots, runs := p.niceSize(nice)
	for k, i := range ev.ExpZero {
		slots += 1 + len(p.In.Classes[i].Jobs) + len(bottoms[k])
	}
	b := sched.NewArenaBuilder(slots)
	out := &sched.Schedule{Variant: sched.Preemptive, T: T, Runs: make([]sched.MachineRun, 0, l+runs)}

	// Step 1: large machines, one I0exp class each, starting at T/2 above
	// their K bottoms.
	for k, i := range ev.ExpZero {
		cls := &p.In.Classes[i] // expensive, so cls.Setup > T/2 > 0
		b.PlaceSlots(bottoms[k]...)
		b.PlaceAt(sched.SlotSetup, i, -1, halfT, sched.R(cls.Setup))
		for j, t := range cls.Jobs {
			b.Place(sched.SlotJob, i, j, sched.R(t))
		}
		out.AddMachine(b.EndMachine())
	}

	// Step 3: the nice instance on the residual m-l machines.
	if err := p.buildNice(out, b, nice); err != nil {
		return nil, err
	}
	return out, nil
}

// splitClassOf returns the class index of the case-A split item, or -1.
func splitClassOf(ev *PmtnEval) int {
	if ev.SplitPos >= 0 {
		return ev.Star[ev.SplitPos]
	}
	return -1
}

// isBigFor reports s + t > T/2, i.e. 2(s+t) > T.
func isBigFor(s, t, tn, td int64) bool {
	return cmpProd(2*(s+t), td, tn, 1) > 0
}

// fullBatch returns the whole class as a cheap batch.
func fullBatch(p *Prep, class int) cheapBatch {
	cls := &p.In.Classes[class]
	pieces := make([]piece, len(cls.Jobs))
	for j, t := range cls.Jobs {
		pieces[j] = piece{j, sched.R(t)}
	}
	return cheapBatch{class: class, pieces: pieces}
}

// wholeK returns every job of the class as a K item.
func wholeK(p *Prep, class int) []kItem {
	cls := &p.In.Classes[class]
	items := make([]kItem, len(cls.Jobs))
	for j, t := range cls.Jobs {
		items[j] = kItem{class, j, sched.R(t)}
	}
	return items
}

// splitStarClass distributes the split class's jobs between the nice part
// and K so that the nice part receives exactly L*_e + x_e*w_e and every K
// piece j[1] keeps s_e + t <= T/2 (paper equation (6) and Note 3; we use a
// per-job greedy that preserves the same invariants with small-denominator
// rationals, see DESIGN.md).
func splitStarClass(p *Prep, ev *PmtnEval, class int) (cheapBatch, []kItem, error) {
	cls := &p.In.Classes[class]
	tn, td := ev.RefNum, ev.RefDen
	uDen := 2 * td
	surplus := ev.SplitU
	var nice []piece
	var ks []kItem
	for j, t := range cls.Jobs {
		var minU int64
		if isBigFor(cls.Setup, t, tn, td) {
			minU = 2*(cls.Setup+t)*td - tn // t(2)_j units
		}
		maxU := 2 * t * td
		raise := maxU - minU
		if raise > surplus {
			raise = surplus
		}
		surplus -= raise
		t2 := minU + raise
		if t2 > 0 {
			nice = append(nice, piece{j, sched.RatOf(t2, uDen)})
		}
		if t2 < maxU {
			ks = append(ks, kItem{class, j, sched.RatOf(maxU-t2, uDen)})
		}
	}
	if surplus != 0 {
		return cheapBatch{}, nil, errInternal("split-class surplus %d units not distributed", surplus)
	}
	return cheapBatch{class: class, pieces: nice}, ks, nil
}

// placeK lays out the K pieces for the bottoms [0, T/2) of the l large
// machines and returns each large machine's bottom slots (empty for none):
// pieces longer than T/4 (K+) each get a dedicated bottom with their own
// setup; the rest (K-) is wrapped into a first full gap [0, T/2) and gaps
// [T/4, T/2) on the remaining large machines, ordered by class with the
// split class first.
func (p *Prep) placeK(l int, kPieces []kItem, splitClass int, halfT, quarterT sched.Rat) ([][]sched.Slot, error) {
	bottoms := make([][]sched.Slot, l)
	if len(kPieces) == 0 {
		return bottoms, nil
	}
	var kPlus, kMinus []kItem
	for _, it := range kPieces {
		if it.length.Cmp(quarterT) > 0 {
			kPlus = append(kPlus, it)
		} else {
			kMinus = append(kMinus, it)
		}
	}
	if len(kPlus) > l {
		return nil, errInternal("K+ needs %d large machines, have %d", len(kPlus), l)
	}
	b := sched.NewArenaBuilder(2 * len(kPlus))
	for k, it := range kPlus {
		s := p.In.Classes[it.class].Setup
		if sched.R(s).Add(it.length).Cmp(halfT) > 0 {
			return nil, errInternal("K+ piece of class %d exceeds T/2", it.class)
		}
		if s > 0 {
			b.Place(sched.SlotSetup, it.class, -1, sched.R(s))
		}
		b.Place(sched.SlotJob, it.class, it.job, it.length)
		bottoms[k] = b.EndMachine()
	}
	if len(kMinus) == 0 {
		return bottoms, nil
	}
	lPrime := len(kPlus)
	if lPrime >= l {
		return nil, errInternal("no large machines left for K- wrap")
	}
	// Group by class, split class first, then ascending class index.
	sort.SliceStable(kMinus, func(a, b int) bool {
		ca, cb := kMinus[a].class, kMinus[b].class
		if (ca == splitClass) != (cb == splitClass) {
			return ca == splitClass
		}
		return ca < cb
	})
	items := len(kMinus)
	for k := range kMinus {
		if k == 0 || kMinus[k].class != kMinus[k-1].class {
			items++ // the class's setup
		}
	}
	q := wrap.NewSequence(items)
	last := -1
	for _, it := range kMinus {
		if it.class != last {
			q.AddSetup(it.class, p.In.Classes[it.class].Setup)
			last = it.class
		}
		q.AddJob(it.class, it.job, it.length)
	}
	gaps := make([]wrap.Gap, 0, l-lPrime)
	gaps = append(gaps, wrap.Gap{A: sched.Rat{}, B: halfT})
	for g := lPrime + 1; g < l; g++ {
		gaps = append(gaps, wrap.Gap{A: quarterT, B: halfT})
	}
	placed, err := wrap.Wrap(gaps, wrap.TailRun{}, q, p.setups())
	if err != nil {
		return nil, errInternal("K- wrap failed: %v", err)
	}
	copy(bottoms[lPrime:], placed.Machines)
	return bottoms, nil
}

// niceInstance is the nice instance of BuildPmtn's step 3 (empty I0exp):
// its I+exp classes with their machine counts gamma, its I-exp classes,
// and the placement of its cheap load.
type niceInstance struct {
	T        sched.Rat
	expPlus  []int
	gamma    []int64
	expMinus []int
	cheap    *wrap.Placement // nil when there is no cheap load
}

// mu reports whether the nice instance has machine mu, the odd last I-exp
// class alone, whose gap [T, 3/2T) leads the cheap wrap's template.
func (n *niceInstance) mu() bool { return len(n.expMinus)%2 == 1 }

// wrapNiceCheap wraps the nice instance's cheap load (Algorithm 2 step 3)
// into the gap [T, 3/2T) of machine mu and gaps [T/2, 3/2T) on the
// machines of the budget that steps 1 and 2 leave unused.
func (p *Prep) wrapNiceCheap(n *niceInstance, budget int64, cheap []cheapBatch) error {
	items := 0
	for _, batch := range cheap {
		if len(batch.pieces) > 0 {
			items += 1 + len(batch.pieces)
		}
	}
	q := wrap.NewSequence(items)
	for _, batch := range cheap {
		if len(batch.pieces) == 0 {
			continue
		}
		q.AddSetup(batch.class, p.In.Classes[batch.class].Setup)
		for _, pc := range batch.pieces {
			q.AddJob(batch.class, pc.job, pc.length)
		}
	}
	if q.Len() == 0 {
		return nil
	}
	T := n.T
	top := T.MulInt(3).DivInt(2)
	used := int64((len(n.expMinus) + 1) / 2)
	for _, g := range n.gamma {
		used += g
	}
	var gaps []wrap.Gap
	if n.mu() {
		gaps = []wrap.Gap{{A: T, B: top}}
	}
	tail := wrap.TailRun{Count: budget - used, A: T.Half(), B: top}
	if tail.Count < 0 {
		return errInternal("nice instance machine budget exceeded (%d used of %d)", used, budget)
	}
	placed, err := wrap.Wrap(gaps, tail, q, p.setups())
	if err != nil {
		return errInternal("nice cheap wrap failed: %v", err)
	}
	n.cheap = placed
	return nil
}

// niceSize bounds the slots and counts the machine runs that buildNice
// emits through the caller's arena: step 1 fills gamma_i machines per
// I+exp class, and each machine boundary splits at most one job; step 2
// places whole classes, plus the cheap slots wrapped onto mu.  The cheap
// wrap's tail runs bring their own arena.
func (p *Prep) niceSize(n *niceInstance) (slots, runs int) {
	for k, i := range n.expPlus {
		cls := &p.In.Classes[i]
		g := int(n.gamma[k])
		if cls.Setup > 0 {
			slots += g
		}
		slots += len(cls.Jobs) + g - 1
		runs += g
	}
	for _, i := range n.expMinus {
		cls := &p.In.Classes[i]
		if cls.Setup > 0 {
			slots++
		}
		slots += len(cls.Jobs)
	}
	runs += (len(n.expMinus) + 1) / 2
	if n.cheap != nil {
		if n.mu() {
			slots += len(n.cheap.Machines[0])
		}
		runs += len(n.cheap.Tail)
	}
	return slots, runs
}

// buildNice schedules the nice instance on fresh machines, appended to
// out's runs with steps 1 and 2 emitted through b (Theorem 4(ii),
// Algorithm 2 with the Section 4.4 step 1):
//
//	step 1: each I+exp class i fills gamma_i machines, the first
//	        gamma_i - 1 to exactly s_i + T/2 (> T) and the last to at
//	        most 3/2 T;
//	step 2: I-exp classes are paired two per machine (load in (T, 3/2T]);
//	        an odd last class sits alone on machine mu;
//	step 3: the cheap load, wrapped by wrapNiceCheap, joins mu above T
//	        and fills the remaining machines.
func (p *Prep) buildNice(out *sched.Schedule, b *sched.MachineBuilder, n *niceInstance) error {
	halfT := n.T.Half()
	top := n.T.MulInt(3).DivInt(2)

	// Step 1.
	for k, i := range n.expPlus {
		cls := &p.In.Classes[i]
		g := n.gamma[k]
		jobIdx, jobLeft := 0, sched.R(cls.Jobs[0])
		for u := int64(0); u < g; u++ {
			if cls.Setup > 0 {
				b.Place(sched.SlotSetup, i, -1, sched.R(cls.Setup))
			}
			cap := halfT
			if u == g-1 {
				cap = sched.R(p.P[i]).Sub(halfT.MulInt(g - 1))
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
			if b.Top().Cmp(top) > 0 {
				return errInternal("nice step 1 machine exceeds 3/2T (class %d)", i)
			}
			out.AddMachine(b.EndMachine())
		}
		if jobIdx < len(cls.Jobs) {
			return errInternal("nice step 1 left work of class %d", i)
		}
	}

	// Step 2.
	for k := 0; k < len(n.expMinus); k += 2 {
		for _, i := range []int{n.expMinus[k], pairOrNeg(n.expMinus, k+1)} {
			if i < 0 {
				continue
			}
			cls := &p.In.Classes[i]
			if cls.Setup > 0 {
				b.Place(sched.SlotSetup, i, -1, sched.R(cls.Setup))
			}
			for j, t := range cls.Jobs {
				b.Place(sched.SlotJob, i, j, sched.R(t))
			}
		}
		if k+1 >= len(n.expMinus) && n.cheap != nil {
			b.PlaceSlots(n.cheap.Machines[0]...) // mu
		}
		out.AddMachine(b.EndMachine())
	}

	// Step 3's remaining machines.
	if n.cheap != nil {
		out.Runs = append(out.Runs, n.cheap.Tail...)
	}
	return nil
}

func pairOrNeg(xs []int, k int) int {
	if k < len(xs) {
		return xs[k]
	}
	return -1
}
