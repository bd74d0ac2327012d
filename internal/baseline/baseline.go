// Package baseline implements the comparison algorithms that the paper's
// results are measured against:
//
//   - McNaughton's wrap-around rule for P|pmtn|Cmax (the classical
//     substrate the paper's Batch Wrapping generalizes);
//   - LPT list scheduling of whole batches (the classical heuristic for
//     the non-preemptive case, in the spirit of Monma & Potts' first
//     phase);
//   - a next-fit batch heuristic in the spirit of Jansen & Land's
//     linear-time 3-approximation.
//
// These baselines carry weaker guarantees than the paper's algorithms; the
// benchmark harness uses them to reproduce the "who wins" shape of
// Table 1.
package baseline

import (
	"container/heap"
	"sort"

	"setupsched/sched"
)

// McNaughton solves P|pmtn|Cmax exactly for jobs without setup classes:
// the optimal makespan is max(t_max, sum t_j / m) and the wrap-around rule
// achieves it.  The jobs are modelled as a single class with setup 0.
func McNaughton(jobs []int64, m int64) *sched.Schedule {
	var sum, tmax int64
	for _, t := range jobs {
		sum += t
		if t > tmax {
			tmax = t
		}
	}
	T := sched.MaxRat(sched.R(tmax), sched.RatOf(sum, m))
	out := &sched.Schedule{Variant: sched.Preemptive, T: T}
	b := sched.NewMachineBuilder()
	cursor := sched.Rat{}
	for j, t := range jobs {
		left := sched.R(t)
		for left.Sign() > 0 {
			room := T.Sub(cursor)
			take := sched.MinRat(left, room)
			b.PlaceAt(sched.SlotJob, 0, j, cursor, take)
			cursor = cursor.Add(take)
			left = left.Sub(take)
			if cursor.Cmp(T) >= 0 {
				out.AddMachine(b.EndMachine())
				cursor = sched.Rat{}
			}
		}
	}
	if len(b.Slots()) > 0 {
		out.AddMachine(b.EndMachine())
	}
	return out
}

// machineHeap is a min-heap of machine loads for list scheduling.
type machineHeap struct {
	load []int64
	idx  []int
}

func (h *machineHeap) Len() int           { return len(h.load) }
func (h *machineHeap) Less(a, b int) bool { return h.load[a] < h.load[b] }
func (h *machineHeap) Swap(a, b int) {
	h.load[a], h.load[b] = h.load[b], h.load[a]
	h.idx[a], h.idx[b] = h.idx[b], h.idx[a]
}
func (h *machineHeap) Push(x any) { panic("fixed size") }
func (h *machineHeap) Pop() any   { panic("fixed size") }

// LPTBatches schedules whole batches (setup + all jobs of a class) by
// longest processing time first onto the least loaded machine.  This is
// the classical list-scheduling baseline for the non-preemptive case.
func LPTBatches(in *sched.Instance) *sched.Schedule {
	c := len(in.Classes)
	order := make([]int, c)
	weight := make([]int64, c)
	for i := range in.Classes {
		order[i] = i
		weight[i] = in.Classes[i].Setup + in.Classes[i].Work()
	}
	sort.Slice(order, func(a, b int) bool {
		if weight[order[a]] != weight[order[b]] {
			return weight[order[a]] > weight[order[b]]
		}
		return order[a] < order[b]
	})
	m := in.M
	if m > int64(c) {
		m = int64(c) // extra machines stay idle for whole-batch scheduling
	}
	h := &machineHeap{load: make([]int64, m), idx: make([]int, m)}
	for u := range h.idx {
		h.idx[u] = u
	}
	heap.Init(h)
	assign := make([][]int, m)
	for _, i := range order {
		assign[h.idx[0]] = append(assign[h.idx[0]], i)
		h.load[0] += weight[i]
		heap.Fix(h, 0)
	}
	out := &sched.Schedule{Variant: sched.NonPreemptive}
	b := sched.NewMachineBuilder()
	for u := int64(0); u < m; u++ {
		for _, i := range assign[u] {
			cls := &in.Classes[i]
			if cls.Setup > 0 {
				b.Place(sched.SlotSetup, i, -1, sched.R(cls.Setup))
			}
			for j, t := range cls.Jobs {
				b.Place(sched.SlotJob, i, j, sched.R(t))
			}
		}
		out.AddMachine(b.EndMachine())
	}
	out.T = out.Makespan()
	return out
}

// NextFitBatches fills machines class by class up to the threshold
// max(N/m, max_i(s_i+t_max)) and closes a machine as soon as it would be
// exceeded, starting the class over (with a fresh setup) on the next
// machine.  It is the simple linear-time strategy in the spirit of Jansen
// & Land's next-fit 3-approximation.
func NextFitBatches(in *sched.Instance) *sched.Schedule {
	thr := in.LowerBound(sched.Preemptive)
	out := &sched.Schedule{Variant: sched.NonPreemptive, T: thr}
	b := sched.NewMachineBuilder()
	flush := func() {
		if len(b.Slots()) > 0 {
			out.AddMachine(b.EndMachine())
		}
	}
	for i := range in.Classes {
		cls := &in.Classes[i]
		setupPending := true
		for j, t := range cls.Jobs {
			need := t
			if setupPending {
				need += cls.Setup
			}
			if !b.Top().IsZero() && b.Top().AddInt(need).Cmp(thr) > 0 {
				flush()
				setupPending = true
				need = t + cls.Setup
			}
			if setupPending {
				if cls.Setup > 0 {
					b.Place(sched.SlotSetup, i, -1, sched.R(cls.Setup))
				}
				setupPending = false
			}
			b.Place(sched.SlotJob, i, j, sched.R(t))
		}
	}
	flush()
	// Next-fit may open more machines than m on tight instances; fold the
	// overflow back round-robin is not feasible non-preemptively, so fall
	// back to stacking overflow machines onto the first ones.
	if int64(len(out.Runs)) > in.M {
		folded := &sched.Schedule{Variant: sched.NonPreemptive, T: thr}
		tops := make([]sched.Rat, in.M)
		items := make([][]sched.Slot, in.M)
		for ri, run := range out.Runs {
			u := int64(ri) % in.M
			for _, sl := range run.Slots {
				length := sl.End.Sub(sl.Start)
				sl.Start = tops[u]
				sl.End = tops[u].Add(length)
				tops[u] = sl.End
				items[u] = append(items[u], sl)
			}
		}
		for u := int64(0); u < in.M; u++ {
			folded.AddMachine(items[u])
		}
		return folded
	}
	return out
}
