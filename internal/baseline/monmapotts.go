package baseline

import (
	"sort"

	"setupsched/sched"
)

// MonmaPottsSplit reconstructs the spirit of Monma & Potts' second
// heuristic (Operations Research 1993), the comparator in the paper's
// Table 1 for the small-batch regime: first list-schedule whole batches
// (LPT), then repeatedly try to split the top batch of the makespan
// machine, moving a suffix of its jobs (plus a fresh setup) to the least
// loaded machine when that reduces the makespan.
//
// The original analysis gives (3/2 - 1/(4m-4)) for small batches with
// m <= 4 and (5/3 - 1/m)-style bounds beyond; this reconstruction makes no
// ratio claim and is used purely as an empirical baseline.
func MonmaPottsSplit(in *sched.Instance) *sched.Schedule {
	type batchPart struct {
		class int
		jobs  []int // job indices
	}
	m := int(in.M)
	if int64(len(in.Classes)) < in.M {
		m = len(in.Classes)
	}
	if m == 0 {
		m = 1
	}
	// Phase 1: LPT whole batches.
	order := make([]int, len(in.Classes))
	for i := range order {
		order[i] = i
	}
	weight := func(i int) int64 { return in.Classes[i].Setup + in.Classes[i].Work() }
	sort.Slice(order, func(a, b int) bool {
		if weight(order[a]) != weight(order[b]) {
			return weight(order[a]) > weight(order[b])
		}
		return order[a] < order[b]
	})
	loads := make([]int64, m)
	parts := make([][]batchPart, m)
	for _, i := range order {
		u := 0
		for v := 1; v < m; v++ {
			if loads[v] < loads[u] {
				u = v
			}
		}
		jobs := make([]int, len(in.Classes[i].Jobs))
		for j := range jobs {
			jobs[j] = j
		}
		parts[u] = append(parts[u], batchPart{class: i, jobs: jobs})
		loads[u] += weight(i)
	}

	// Phase 2: batch splitting.  Move single jobs off the top batch of the
	// makespan machine while it strictly improves the makespan.
	for round := 0; round < 4*len(in.Classes)+8; round++ {
		hi, lo := 0, 0
		for u := 1; u < m; u++ {
			if loads[u] > loads[hi] {
				hi = u
			}
			if loads[u] < loads[lo] {
				lo = u
			}
		}
		if hi == lo || len(parts[hi]) == 0 {
			break
		}
		top := &parts[hi][len(parts[hi])-1]
		if len(top.jobs) == 0 {
			break
		}
		cls := &in.Classes[top.class]
		j := top.jobs[len(top.jobs)-1]
		move := cls.Jobs[j]
		// Receiving machine pays a fresh setup unless it already carries
		// a part of this class.
		extra := cls.Setup
		for _, bp := range parts[lo] {
			if bp.class == top.class {
				extra = 0
				break
			}
		}
		newHi := loads[hi] - move
		if len(top.jobs) == 1 {
			newHi -= cls.Setup // batch leaves entirely
		}
		newLo := loads[lo] + move + extra
		if maxi64(newHi, newLo) >= loads[hi] {
			break // no improvement possible with this move
		}
		// Apply.
		top.jobs = top.jobs[:len(top.jobs)-1]
		loads[hi] = newHi
		if len(top.jobs) == 0 {
			parts[hi] = parts[hi][:len(parts[hi])-1]
		}
		placed := false
		for k := range parts[lo] {
			if parts[lo][k].class == top.class {
				parts[lo][k].jobs = append(parts[lo][k].jobs, j)
				placed = true
				break
			}
		}
		if !placed {
			parts[lo] = append(parts[lo], batchPart{class: top.class, jobs: []int{j}})
		}
		loads[lo] = newLo
	}

	// Emit.
	out := &sched.Schedule{Variant: sched.NonPreemptive}
	b := sched.NewMachineBuilder()
	for u := 0; u < m; u++ {
		for _, bp := range parts[u] {
			if len(bp.jobs) == 0 {
				continue
			}
			cls := &in.Classes[bp.class]
			if cls.Setup > 0 {
				b.Place(sched.SlotSetup, bp.class, -1, sched.R(cls.Setup))
			}
			for _, j := range bp.jobs {
				b.Place(sched.SlotJob, bp.class, j, sched.R(cls.Jobs[j]))
			}
		}
		out.AddMachine(b.EndMachine())
	}
	out.T = out.Makespan()
	return out
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
