package exact

// Branch-and-bound reference backend for the non-preemptive variant.
//
// The tiny-n exhaustive search in exact.go branches on raw job-to-machine
// assignments and dies around n = 14.  This file replaces it as the
// reference optimum for realistic sizes by exploiting the same threshold
// structure the paper's dual tests use (Lemma 12 / Theorem 9 accounting):
//
//   - OPT is an integer (all setups and processing times are integers and
//     every machine's completion time is a plain sum), so the outer loop
//     is an integral binary search for the threshold of the monotone
//     predicate feasible(T) = "a schedule with makespan <= T exists";
//
//   - the search bracket comes from certified bounds we already compute:
//     the lower end is the trivial bound and the certified lower bound of
//     the near-linear 3/2-search, the upper end is that search's feasible
//     schedule, so the bracket spans at most a factor 3/2;
//
//   - feasible(T) is a depth-first branch-and-bound over batch
//     compositions: jobs are placed class by class (descending
//     s_i + t_max^(i), descending t_j within a class), a machine pays the
//     setup s_i exactly when it receives its first job of class i, and
//     every node is pruned with the splittable relaxation at T — class i
//     occupies at least max(ceil(P_i/(T-s_i)), |{j : 2 t_j > T-s_i}|)
//     machines (a machine running class i holds at most T - s_i of its
//     work, and two jobs above half that capacity cannot share one), so
//     the remaining work plus the implied unpaid setups must fit in the
//     remaining machine capacity m*T - sum(load);
//
//   - symmetry is broken deterministically: empty machines are
//     interchangeable (only the first is tried), equal jobs of one class
//     are interchangeable (machine indices must be non-decreasing), and
//     branches landing a job on machines in indistinguishable states
//     (equal load, same setup status for the job's class) are deduped.
//
// The solve runs in three phases.  Phase 1 raises the lower end of the
// bracket to the threshold of the splittable relaxation (for singleton
// classes additionally the Martello-Toth pairing bound on the induced
// bin-packing instance) — pure arithmetic, no search.  Phase 2 pulls the
// upper end down with a deterministic constructive portfolio: four
// greedy machine-choice rules plus a local-search repair that places
// with overflow and descends on total excess via moves and one-for-two /
// two-for-one exchanges.  Phase 3 resolves the residual bracket with the
// branch-and-bound decision procedure, each probe capped at half the
// remaining node budget so a single adversarial threshold cannot starve
// the rest.
//
// The whole solve shares one node budget across all decision probes;
// exhausting it returns a *BudgetError (matching ErrBudget via errors.Is)
// carrying the certified bracket reached so far — callers that cannot
// get a full solve still get a sound OPT interval.  The search is
// deterministic: identical instances and budgets always expand identical
// trees.

import (
	"context"
	"errors"
	"fmt"

	"setupsched/internal/core"
	"setupsched/sched"
)

// DefaultNodeBudget is the branch-and-bound node budget used when the
// caller passes budget <= 0.  It is shared across all decision probes of
// one solve; catalog instances with hundreds of jobs typically need a few
// thousand nodes, so the default leaves generous headroom while bounding
// adversarial instances to well under a second.
const DefaultNodeBudget int64 = 2_000_000

// MaxBranchBoundJobs bounds the instance size BranchBound accepts.  The
// limit protects memory (per-machine class bitsets), not time — time is
// governed by the node budget.
const MaxBranchBoundJobs = 4096

// ErrBudget matches (via errors.Is) any budget-exhaustion failure of the
// branch-and-bound backend.
var ErrBudget = errors.New("exact: branch-and-bound node budget exhausted")

// BudgetError reports an exhausted node budget together with the
// certified bracket the binary search had reached: Lo <= OPT <= Hi.
type BudgetError struct {
	Budget int64 // the configured node budget
	Nodes  int64 // nodes expanded when the budget ran out
	Lo, Hi int64 // certified bracket on OPT at abort
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("exact: node budget %d exhausted after %d nodes (certified %d <= OPT <= %d)",
		e.Budget, e.Nodes, e.Lo, e.Hi)
}

// Is reports target == ErrBudget, tying the typed error to the sentinel.
func (e *BudgetError) Is(target error) bool { return target == ErrBudget }

// BBResult is the outcome of a successful BranchBound solve.
type BBResult struct {
	// Opt is the optimal non-preemptive makespan.
	Opt int64
	// Schedule is an optimal schedule witnessing Opt (variant
	// NonPreemptive, makespan exactly Opt).
	Schedule *sched.Schedule
	// Nodes is the total number of branch-and-bound nodes expanded.
	Nodes int64
	// Probes is the number of feasibility decisions evaluated by the
	// outer binary search.
	Probes int
}

// BranchBound computes the exact optimal non-preemptive makespan by
// branch-and-bound (see the file comment for the search structure).  The
// context cancels the search between node batches; budget <= 0 selects
// DefaultNodeBudget.  On budget exhaustion the returned error is a
// *BudgetError matching ErrBudget and carrying the certified bracket.
func BranchBound(ctx context.Context, in *sched.Instance, budget int64) (*BBResult, error) {
	if in == nil {
		return nil, errors.New("exact: nil instance")
	}
	if in.NumJobs() > MaxBranchBoundJobs {
		return nil, ErrTooLarge
	}
	if budget <= 0 {
		budget = DefaultNodeBudget
	}

	// Certified bracket from the near-linear machinery: lo from the
	// trivial bound and the 3/2-search's certified lower bound, hi from
	// its feasible schedule.  Both sides stay sound even on the search's
	// documented fallback path (the bound is conservative, never unsound).
	prep := core.Prepare(in)
	hr, err := prep.SolveNonpSearch(core.Ctl{Ctx: ctx})
	if err != nil {
		return nil, err
	}
	lo := prep.TMin(sched.NonPreemptive).Ceil()
	if c := hr.LowerBound.Ceil(); c > lo {
		lo = c
	}
	heurMk := hr.Schedule.Makespan()
	hi := heurMk.Ceil()
	if hi < lo {
		// Cannot happen for sound bounds; fail loudly instead of looping.
		return nil, fmt.Errorf("exact: inverted bracket [%d, %d]", lo, hi)
	}

	st := newBBState(in)
	res := &BBResult{}

	// Phase 1 — splittable relaxation: raise lo to the threshold of the
	// fractional bound sum_i (P_i + minBatch_i(T) s_i) <= m*T.  This is
	// exact arithmetic on a monotone predicate, so it certifies every
	// T below the threshold as infeasible without expanding a single
	// node; on volume-driven instances the new lo already equals OPT and
	// the whole solve reduces to finding one witness.
	lo = st.relaxThreshold(lo, hi)

	// Phase 2 — greedy descent: pull hi down with the deterministic
	// constructive portfolio only (O(n*m) per probe, no tree search).
	// Rejections certify nothing here, so the dedicated glo cursor never
	// feeds back into the certified lo.
	var witness []int32 // assignment for the best accepted T
	witnessT := int64(-1)
	accept := func(T int64) {
		hi = T
		witness = append(witness[:0], st.assign...)
		witnessT = T
	}
	for glo := lo; glo < hi; {
		mid := glo + (hi-glo)/2
		if st.prepare(mid) && st.greedy() {
			accept(mid)
		} else {
			glo = mid + 1
		}
	}

	// Phase 3 — exact binary search on the residual bracket.  Each probe
	// gets half of the remaining node budget: a single adversarial probe
	// can no longer starve the rest of the search, and the geometric
	// split still admits ~log2(budget) probes.  A probe that runs dry
	// under its cap leaves the bracket intact; since witnesses get easier
	// with slack, the target then escalates toward hi (any decision there
	// still narrows the bracket) until no fresh target or budget remains.
	for lo < hi {
		target := lo + (hi-lo)/2
		for lo < hi {
			probeCap := (budget - st.nodesUsed) / 2
			if probeCap < 1 {
				probeCap = 1
			}
			res.Probes++
			ok, err := st.feasible(ctx, target, st.nodesUsed+probeCap)
			if err != nil {
				var be *BudgetError
				if !errors.As(err, &be) {
					res.Nodes = st.nodesUsed
					return nil, err
				}
				next := target + (hi-target+1)/2
				if st.nodesUsed >= budget || next >= hi || next == target {
					be.Budget, be.Nodes = budget, st.nodesUsed
					be.Lo, be.Hi = lo, hi
					res.Nodes = st.nodesUsed
					return nil, be
				}
				target = next
				continue
			}
			if ok {
				accept(target)
			} else {
				lo = target + 1
			}
			break
		}
	}
	res.Opt = lo
	res.Nodes = st.nodesUsed

	if witnessT == res.Opt && witness != nil {
		res.Schedule = st.buildSchedule(witness, res.Opt)
	} else {
		// No accepted probe at Opt: the search converged onto the initial
		// hi purely by rejections, which certifies OPT = hi.  The
		// heuristic schedule is then itself optimal (its makespan mk
		// satisfies Opt <= mk <= ceil(mk) = hi = Opt).
		res.Schedule = hr.Schedule
	}
	// Belt and braces: the witness must state exactly Opt.
	if got := res.Schedule.Makespan(); got.CmpInt(res.Opt) != 0 {
		return nil, fmt.Errorf("exact: internal error: witness makespan %s != computed optimum %d", got, res.Opt)
	}
	return res, nil
}

// bbJob is one job in the flattened class-major branching order.
type bbJob struct {
	cls     int32 // index into bbState.cls (the reordered classes)
	origJob int32 // job index within the original class
	t       int64
	eqPrev  bool // same class and length as the previous flat job
}

// bbClass is one class in branching order.
type bbClass struct {
	orig  int32 // index into Instance.Classes
	setup int64
	work  int64
}

// bbState carries the reusable search state shared by all decision
// probes of one BranchBound call.
type bbState struct {
	in    *sched.Instance
	m     int // effective machine count, min(M, n)
	cls   []bbClass
	jobs  []bbJob
	words int // bitset words per machine

	nodeLimit int64 // per-probe node ceiling (cumulative, set by feasible)
	nodesUsed int64

	// Per-probe state (reset by feasible).
	load      []int64  // per machine
	classOn   []uint64 // m * words bitset: machine u has class i open
	openCount []int64  // per class: machines with the class open
	remWork   []int64  // per class: unplaced work
	assign    []int32  // per flat job: machine index
	totalLoad int64
	T         int64
	cap       []int64 // per class: T - setup
	minBatch  []int64 // per class: machines the whole class needs at T
	sufNeed   []int64 // suffix sums of work + minBatch*setup over classes
	bigRem    []int64 // per flat job: remaining same-class jobs with 2t > cap

	minTSuf []int64 // per flat job: smallest job length in the suffix
	// Per-depth candidate buffers for ordered branching (slices of stride
	// m into one backing array; nil when n*m would be too large, in which
	// case dfs falls back to per-node allocation).
	cand    []int32
	candKey []int64
	// cnt[u*len(cls)+ci] is the number of class-ci jobs on machine u during
	// the local-search repair accept path (nil when m*c is too large, which
	// simply disables that path).
	cnt []int32
	// ordDesc is an alternative placement order for the repair path: flat
	// job indices by descending setup-inclusive size.
	ordDesc []int32
	// machine job lists rebuilt per deep-repair step (backing array,
	// offsets, fill cursors).
	mjobs []int32
	moff  []int32
	mcur  []int32
	// Pure bin-packing view when every class holds exactly one job: item
	// weights setup+t sorted ascending, with prefix sums.  Enables the
	// Martello-Toth pairing bound as an extra root rejection.
	bpW   []int64
	bpPre []int64
}

// newBBState flattens and orders the instance once; all per-probe arrays
// are allocated here and reused across probes.
func newBBState(in *sched.Instance) *bbState {
	c := len(in.Classes)
	n := in.NumJobs()
	st := &bbState{in: in}
	st.m = n
	if int64(st.m) > in.M {
		st.m = int(in.M)
	}
	if st.m < 1 {
		st.m = 1
	}

	// Classes ordered by descending s_i + t_max^(i): the hardest batches
	// are committed first, so pruning bites near the root.
	st.cls = make([]bbClass, c)
	order := make([]int, c)
	for i := range order {
		order[i] = i
	}
	key := func(i int) int64 { return in.Classes[i].Setup + in.Classes[i].MaxJob() }
	// Deterministic insertion sort (c is small compared to n).
	for i := 1; i < c; i++ {
		for j := i; j > 0 && (key(order[j]) > key(order[j-1]) ||
			(key(order[j]) == key(order[j-1]) && order[j] < order[j-1])); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	st.jobs = make([]bbJob, 0, n)
	for ci, oi := range order {
		cl := &in.Classes[oi]
		st.cls[ci] = bbClass{orig: int32(oi), setup: cl.Setup, work: cl.Work()}
		start := len(st.jobs)
		for j, t := range cl.Jobs {
			st.jobs = append(st.jobs, bbJob{cls: int32(ci), origJob: int32(j), t: t})
		}
		// Descending job lengths within the class, stable on origJob.
		seg := st.jobs[start:]
		for i := 1; i < len(seg); i++ {
			for j := i; j > 0 && (seg[j].t > seg[j-1].t ||
				(seg[j].t == seg[j-1].t && seg[j].origJob < seg[j-1].origJob)); j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
		for i := 1; i < len(seg); i++ {
			seg[i].eqPrev = seg[i].t == seg[i-1].t
		}
	}

	// Smallest job length over each flat suffix: a machine whose residual
	// capacity drops below minTSuf[j] can never receive another job (even
	// an already-open class costs at least the bare job length), so its
	// slack is certified dead in every extension of the node.
	st.minTSuf = make([]int64, n+1)
	st.minTSuf[n] = 1 << 62
	for j := n - 1; j >= 0; j-- {
		st.minTSuf[j] = st.minTSuf[j+1]
		if st.jobs[j].t < st.minTSuf[j] {
			st.minTSuf[j] = st.jobs[j].t
		}
	}

	st.words = (c + 63) / 64
	st.load = make([]int64, st.m)
	st.classOn = make([]uint64, st.m*st.words)
	st.openCount = make([]int64, c)
	st.remWork = make([]int64, c)
	st.assign = make([]int32, n)
	st.cap = make([]int64, c)
	st.minBatch = make([]int64, c)
	st.sufNeed = make([]int64, c+1)
	st.bigRem = make([]int64, n+1)
	if n*st.m <= 1<<22 {
		st.cand = make([]int32, n*st.m)
		st.candKey = make([]int64, n*st.m)
	}
	if c > 0 && st.m*c <= 1<<22 {
		st.cnt = make([]int32, st.m*c)
		st.ordDesc = make([]int32, n)
		for j := range st.ordDesc {
			st.ordDesc[j] = int32(j)
		}
		size := func(j int32) int64 {
			jb := &st.jobs[j]
			return jb.t + st.cls[jb.cls].setup
		}
		ord := st.ordDesc
		for i := 1; i < len(ord); i++ {
			for j := i; j > 0 && (size(ord[j]) > size(ord[j-1]) ||
				(size(ord[j]) == size(ord[j-1]) && ord[j] < ord[j-1])); j-- {
				ord[j], ord[j-1] = ord[j-1], ord[j]
			}
		}
		st.mjobs = make([]int32, n)
		st.moff = make([]int32, st.m+1)
		st.mcur = make([]int32, st.m)
	}

	singleton := c > 0
	for i := range in.Classes {
		if len(in.Classes[i].Jobs) != 1 {
			singleton = false
			break
		}
	}
	if singleton {
		st.bpW = make([]int64, c)
		for i := range in.Classes {
			st.bpW[i] = in.Classes[i].Setup + in.Classes[i].Jobs[0]
		}
		w := st.bpW
		for i := 1; i < len(w); i++ {
			for j := i; j > 0 && w[j] < w[j-1]; j-- {
				w[j], w[j-1] = w[j-1], w[j]
			}
		}
		st.bpPre = make([]int64, c+1)
		for i, x := range w {
			st.bpPre[i+1] = st.bpPre[i] + x
		}
	}
	return st
}

// l2Reject applies the Martello-Toth pairing bound for the pure
// bin-packing view of an all-singleton instance: for every threshold
// lambda, items above T-lambda monopolize their machines against all
// items >= lambda, so the remaining volume must fit in the machines left
// over.  Each rejection independently certifies its T (the bound is a
// valid relaxation at that T), which keeps the outer binary search sound
// without needing monotonicity of this test.
func (st *bbState) l2Reject(T int64) bool {
	w, pre := st.bpW, st.bpPre
	n := len(w)
	// upper(x): first index with w > x.
	upper := func(x int64) int {
		a, b := 0, n
		for a < b {
			mid := (a + b) / 2
			if w[mid] <= x {
				a = mid + 1
			} else {
				b = mid
			}
		}
		return a
	}
	idxHalf := upper(T / 2)
	for i := 0; i < idxHalf; i++ {
		if i > 0 && w[i] == w[i-1] {
			continue
		}
		lam := w[i]
		idx1 := upper(T - lam)      // items > T-lam
		n1 := int64(n - idx1)       //
		n2 := int64(idx1 - idxHalf) // T-lam >= w > T/2
		s2 := pre[idx1] - pre[idxHalf]
		s3 := pre[idxHalf] - pre[i] // T/2 >= w >= lam
		l := n1 + n2
		if rest := s2 + s3 - n2*T; rest > 0 {
			l += ceilDiv(rest, T)
		}
		if l > int64(st.m) {
			return true
		}
	}
	return false
}

func (st *bbState) open(u int, cls int32) bool {
	return st.classOn[u*st.words+int(cls)/64]&(1<<(uint(cls)%64)) != 0
}

func (st *bbState) setOpen(u int, cls int32) {
	st.classOn[u*st.words+int(cls)/64] |= 1 << (uint(cls) % 64)
}

func (st *bbState) clearOpen(u int, cls int32) {
	st.classOn[u*st.words+int(cls)/64] &^= 1 << (uint(cls) % 64)
}

// ceilDiv returns ceil(a/b) for a >= 0, b > 0.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// relaxThreshold returns the smallest T in [lo, hi] passing the root
// splittable relaxation (prepare).  The predicate is monotone in T: every
// class capacity grows, the minimum batch counts shrink and the free
// volume m*T grows, so a rejection at T rejects every smaller T too.  A
// feasible schedule exists at hi, so prepare(hi) always holds.
func (st *bbState) relaxThreshold(lo, hi int64) int64 {
	a, b := lo, hi
	for a < b {
		mid := a + (b-a)/2
		if st.prepare(mid) {
			b = mid
		} else {
			a = mid + 1
		}
	}
	return a
}

// prepare sets up the threshold structure at T and applies the root
// relaxation prunes, returning false when T is certified infeasible.  It
// leaves the placement state reset, ready for greedy or dfs.
func (st *bbState) prepare(T int64) bool {
	st.T = T
	// A class whose setup-plus-longest-job exceeds T is unschedulable;
	// the caller's bracket starts above the s_i + t_max bound, so this
	// only fires from relaxThreshold's own probing.
	for ci := range st.cls {
		cl := &st.cls[ci]
		cap := T - cl.setup
		st.cap[ci] = cap
		if cap < 1 {
			return false
		}
		mb := ceilDiv(cl.work, cap)
		st.remWork[ci] = cl.work
		st.openCount[ci] = 0
		st.minBatch[ci] = mb
	}
	// Per-flat-job tail counts of jobs above half the class capacity (two
	// such jobs cannot share a machine), sharpening minBatch and the
	// in-node bound for the class currently being placed.  Flat order is
	// class-major, so the count at a class's first flat job covers the
	// whole class.
	st.bigRem[len(st.jobs)] = 0
	for j := len(st.jobs) - 1; j >= 0; j-- {
		jb := &st.jobs[j]
		tail := int64(0)
		if j+1 < len(st.jobs) && st.jobs[j+1].cls == jb.cls {
			tail = st.bigRem[j+1]
		}
		if 2*jb.t > st.cap[jb.cls] {
			tail++
		}
		if jb.t > st.cap[jb.cls] {
			return false // job cannot fit any machine at T
		}
		st.bigRem[j] = tail
		if j == 0 || st.jobs[j-1].cls != jb.cls {
			if tail > st.minBatch[jb.cls] {
				st.minBatch[jb.cls] = tail
			}
		}
	}
	for ci := range st.cls {
		if st.minBatch[ci] > int64(st.m) {
			return false // one class alone demands more machines than exist
		}
	}
	// Splittable relaxation at T (root prune): all work plus the minimal
	// setup load must fit into m*T.
	st.sufNeed[len(st.cls)] = 0
	for ci := len(st.cls) - 1; ci >= 0; ci-- {
		st.sufNeed[ci] = st.sufNeed[ci+1] + st.cls[ci].work + st.minBatch[ci]*st.cls[ci].setup
	}
	if st.sufNeed[0] > int64(st.m)*T {
		return false
	}
	if st.bpW != nil && st.l2Reject(T) {
		return false
	}
	st.resetPlacement()
	return true
}

// feasible decides whether a schedule with makespan <= T exists,
// recording a witness assignment in st.assign on acceptance.  The search
// aborts with a bare *BudgetError (bracket patched by the caller) once
// st.nodesUsed exceeds nodeLimit.
func (st *bbState) feasible(ctx context.Context, T, nodeLimit int64) (bool, error) {
	if !st.prepare(T) {
		return false, nil
	}
	// Greedy fast path: the constructive portfolio in branching order.
	// Most catalog instances accept their threshold here, leaving the
	// exponential search for genuinely tight probes.
	if st.greedy() {
		return true, nil
	}
	st.resetPlacement()
	st.nodeLimit = nodeLimit
	return st.dfs(ctx, 0)
}

func (st *bbState) resetPlacement() {
	for u := range st.load {
		st.load[u] = 0
	}
	for i := range st.classOn {
		st.classOn[i] = 0
	}
	for ci := range st.cls {
		st.openCount[ci] = 0
		st.remWork[ci] = st.cls[ci].work
	}
	st.totalLoad = 0
}

// place commits flat job j to machine u, returning the load delta.
func (st *bbState) place(j int, u int) int64 {
	jb := &st.jobs[j]
	add := jb.t
	if !st.open(u, jb.cls) {
		add += st.cls[jb.cls].setup
		st.setOpen(u, jb.cls)
		st.openCount[jb.cls]++
	}
	st.load[u] += add
	st.totalLoad += add
	st.remWork[jb.cls] -= jb.t
	st.assign[j] = int32(u)
	return add
}

// unplace reverts place; paidSetup reports whether the move opened the
// class on u.
func (st *bbState) unplace(j int, u int, add int64) {
	jb := &st.jobs[j]
	if add != jb.t { // the move paid the setup
		st.clearOpen(u, jb.cls)
		st.openCount[jb.cls]--
	}
	st.load[u] -= add
	st.totalLoad -= add
	st.remWork[jb.cls] += jb.t
}

// Greedy portfolio modes: different deterministic machine-choice rules
// for the same class-major decreasing job order.  Each witnesses a
// different packing style, so running all of them accepts far more probe
// values cheaply than any single rule.
const (
	greedyBestFitOpen  = iota // min slack among open-class machines first
	greedyFirstFitOpen        // lowest index, open-class machines first
	greedyWorstFitOpen        // max slack among open-class machines first
	greedyBestFitPure         // min setup-inclusive slack, no open preference
	greedyModes
)

// greedy attempts the deterministic constructive portfolio; on success
// st.assign holds a witness.  The placement state is left dirty on
// failure — callers reset before any subsequent dfs.
func (st *bbState) greedy() bool {
	for mode := 0; mode < greedyModes; mode++ {
		st.resetPlacement()
		if st.greedyVariant(mode) {
			return true
		}
	}
	if st.cnt != nil {
		for mode := 0; mode < repairModes; mode++ {
			if st.repair(mode) {
				return true
			}
		}
	}
	return false
}

// greedyVariant runs one pass of the portfolio: each job goes to the
// feasible machine preferred by the mode's rule.
func (st *bbState) greedyVariant(mode int) bool {
	for j := range st.jobs {
		jb := &st.jobs[j]
		bestU, bestSlack, bestOpen := -1, int64(-1), false
		seenEmpty := false
		for u := 0; u < st.m; u++ {
			if st.load[u] == 0 {
				if seenEmpty {
					break // all further empty machines are identical
				}
				seenEmpty = true
			}
			need := jb.t
			open := st.open(u, jb.cls)
			if !open {
				need += st.cls[jb.cls].setup
			}
			slack := st.T - st.load[u] - need
			if slack < 0 {
				continue
			}
			better := bestU < 0
			if !better {
				switch mode {
				case greedyBestFitOpen:
					better = (open && !bestOpen) || (open == bestOpen && slack < bestSlack)
				case greedyFirstFitOpen:
					better = open && !bestOpen
				case greedyWorstFitOpen:
					better = (open && !bestOpen) || (open == bestOpen && slack > bestSlack)
				case greedyBestFitPure:
					better = slack < bestSlack
				}
			}
			if better {
				bestU, bestSlack, bestOpen = u, slack, open
			}
		}
		if bestU < 0 {
			return false
		}
		st.place(j, bestU)
	}
	return true
}

// Repair accept modes combine an initial placement rule (low bit) with a
// placement order (high bit): class-major flat order or globally
// descending setup-inclusive size.
const (
	repairBalance     = iota // min resulting load (LPT-style), overflow allowed
	repairBestFitOver        // best fit at T, overflow to min resulting load
	repairInitRules
	repairModes = 2 * repairInitRules
)

// repair is the portfolio's last accept path: place every job allowing
// machines to overflow T, then run a deterministic move/swap descent on
// the total excess.  Every accepted change strictly reduces the integral
// excess while keeping its counterpart machine within T, so the descent
// terminates; zero excess makes st.assign a witness.  This is purely an
// accept heuristic — failure certifies nothing — but it is what cracks
// volume-tight thresholds where plain greedy strands a few units of
// slack.  It bypasses place/unplace and maintains only load/cnt/assign;
// callers reset the placement state before any subsequent dfs.
func (st *bbState) repair(mode int) bool {
	c := len(st.cls)
	for u := 0; u < st.m; u++ {
		st.load[u] = 0
	}
	for i := range st.cnt {
		st.cnt[i] = 0
	}
	init := mode % repairInitRules
	for jj := range st.jobs {
		j := jj
		if mode >= repairInitRules {
			j = int(st.ordDesc[jj])
		}
		jb := &st.jobs[j]
		ci := int(jb.cls)
		bestU, bestKey := -1, int64(0)
		seenEmpty := false
		for u := 0; u < st.m; u++ {
			if st.load[u] == 0 {
				if seenEmpty {
					break // identical empty machines
				}
				seenEmpty = true
			}
			cost := jb.t
			if st.cnt[u*c+ci] == 0 {
				cost += st.cls[ci].setup
			}
			var k int64
			switch init {
			case repairBalance:
				k = st.load[u] + cost
			case repairBestFitOver:
				if st.load[u]+cost <= st.T {
					k = st.T - st.load[u] - cost
				} else {
					k = 1<<60 + st.load[u] + cost
				}
			}
			if bestU < 0 || k < bestKey {
				bestU, bestKey = u, k
			}
		}
		cost := jb.t
		if st.cnt[bestU*c+ci] == 0 {
			cost += st.cls[ci].setup
		}
		st.load[bestU] += cost
		st.cnt[bestU*c+ci]++
		st.assign[j] = int32(bestU)
	}

	steps := 8 * len(st.jobs) // hard cap; the excess descent is monotone anyway
	for changed := true; changed; {
		changed = false
		for u := 0; u < st.m; u++ {
			for st.load[u] > st.T && steps > 0 {
				if !st.repairStep(u) {
					break
				}
				steps--
				changed = true
			}
		}
	}
	for u := 0; u < st.m; u++ {
		if st.load[u] > st.T {
			return false
		}
	}
	return true
}

// repairStep applies one excess-reducing change for overloaded machine u:
// the best-fit move of one of u's jobs to a machine that stays within T,
// else the first job swap with a within-T machine that strictly lowers u.
func (st *bbState) repairStep(u int) bool {
	c := len(st.cls)
	bestJ, bestV, bestKey := -1, -1, int64(0)
	for j := range st.jobs {
		if int(st.assign[j]) != u {
			continue
		}
		jb := &st.jobs[j]
		ci := int(jb.cls)
		for v := 0; v < st.m; v++ {
			if v == u {
				continue
			}
			cost := jb.t
			if st.cnt[v*c+ci] == 0 {
				cost += st.cls[ci].setup
			}
			if st.load[v]+cost > st.T {
				continue
			}
			k := st.T - st.load[v] - cost
			if bestJ < 0 || k < bestKey {
				bestJ, bestV, bestKey = j, v, k
			}
		}
	}
	if bestJ >= 0 {
		st.repairMove(bestJ, bestV)
		return true
	}
	for j := range st.jobs {
		if int(st.assign[j]) != u {
			continue
		}
		jb := &st.jobs[j]
		cj := int(jb.cls)
		rmJ := jb.t
		if st.cnt[u*c+cj] == 1 {
			rmJ += st.cls[cj].setup
		}
		for k := range st.jobs {
			v := int(st.assign[k])
			if v == u || st.load[v] > st.T {
				continue
			}
			kb := &st.jobs[k]
			ck := int(kb.cls)
			// Load delta on u from j leaving and k arriving; when the two
			// share a class, j's departure is accounted before k's arrival.
			cntUk := st.cnt[u*c+ck]
			if ck == cj {
				cntUk--
			}
			addKU := kb.t
			if cntUk == 0 {
				addKU += st.cls[ck].setup
			}
			if addKU-rmJ >= 0 {
				continue
			}
			rmK := kb.t
			if st.cnt[v*c+ck] == 1 {
				rmK += st.cls[ck].setup
			}
			cntVj := st.cnt[v*c+cj]
			if cj == ck {
				cntVj--
			}
			addJV := jb.t
			if cntVj == 0 {
				addJV += st.cls[cj].setup
			}
			if st.load[v]-rmK+addJV > st.T {
				continue
			}
			st.repairMove(j, v)
			st.repairMove(k, u)
			return true
		}
	}
	return st.repairDeep(u)
}

// buildMachineJobs fills mjobs/moff with per-machine flat-job lists.
func (st *bbState) buildMachineJobs() {
	for u := 0; u <= st.m; u++ {
		st.moff[u] = 0
	}
	for j := range st.jobs {
		st.moff[int(st.assign[j])+1]++
	}
	for u := 0; u < st.m; u++ {
		st.moff[u+1] += st.moff[u]
	}
	copy(st.mcur, st.moff[:st.m])
	for j := range st.jobs {
		u := int(st.assign[j])
		st.mjobs[st.mcur[u]] = int32(j)
		st.mcur[u]++
	}
}

// simDelta returns the load change on machine x from removing the flat
// jobs in rms (currently on x) and adding those in ads.  A machine's load
// is a pure function of its final job set, so the simulation order is
// irrelevant; up to four touched classes are tracked locally.
func (st *bbState) simDelta(x int, rms, ads []int) int64 {
	c := len(st.cls)
	var tc [4]int32
	var ta [4]int32
	ntc := 0
	cntOf := func(ci int32) int32 {
		v := st.cnt[x*c+int(ci)]
		for i := 0; i < ntc; i++ {
			if tc[i] == ci {
				v += ta[i]
			}
		}
		return v
	}
	bump := func(ci int32, d int32) {
		for i := 0; i < ntc; i++ {
			if tc[i] == ci {
				ta[i] += d
				return
			}
		}
		tc[ntc], ta[ntc] = ci, d
		ntc++
	}
	delta := int64(0)
	for _, j := range rms {
		jb := &st.jobs[j]
		delta -= jb.t
		if cntOf(jb.cls) == 1 {
			delta -= st.cls[jb.cls].setup
		}
		bump(jb.cls, -1)
	}
	for _, j := range ads {
		jb := &st.jobs[j]
		delta += jb.t
		if cntOf(jb.cls) == 0 {
			delta += st.cls[jb.cls].setup
		}
		bump(jb.cls, 1)
	}
	return delta
}

// repairDeep tries the heavier exchanges near a stall: one job from u
// against a pair on another machine, then a pair from u against one job
// elsewhere.  The first strictly-improving exchange (deterministic scan
// order) is applied.
func (st *bbState) repairDeep(u int) bool {
	st.buildMachineJobs()
	uj := st.mjobs[st.moff[u]:st.moff[u+1]]
	for _, j32 := range uj {
		j := int(j32)
		for v := 0; v < st.m; v++ {
			if v == u || st.load[v] > st.T {
				continue
			}
			vj := st.mjobs[st.moff[v]:st.moff[v+1]]
			for a := 0; a < len(vj); a++ {
				for b := a + 1; b < len(vj); b++ {
					k1, k2 := int(vj[a]), int(vj[b])
					if st.simDelta(u, []int{j}, []int{k1, k2}) >= 0 {
						continue
					}
					dV := st.simDelta(v, []int{k1, k2}, []int{j})
					if st.load[v]+dV > st.T {
						continue
					}
					st.repairMove(j, v)
					st.repairMove(k1, u)
					st.repairMove(k2, u)
					return true
				}
			}
		}
	}
	for a := 0; a < len(uj); a++ {
		for b := a + 1; b < len(uj); b++ {
			j1, j2 := int(uj[a]), int(uj[b])
			for k := range st.jobs {
				v := int(st.assign[k])
				if v == u || st.load[v] > st.T {
					continue
				}
				if st.simDelta(u, []int{j1, j2}, []int{k}) >= 0 {
					continue
				}
				dV := st.simDelta(v, []int{k}, []int{j1, j2})
				if st.load[v]+dV > st.T {
					continue
				}
				st.repairMove(j1, v)
				st.repairMove(j2, v)
				st.repairMove(k, u)
				return true
			}
		}
	}
	return false
}

// repairMove reassigns flat job j to machine v, maintaining load and cnt.
func (st *bbState) repairMove(j, v int) {
	jb := &st.jobs[j]
	ci := int(jb.cls)
	c := len(st.cls)
	u := int(st.assign[j])
	rm := jb.t
	if st.cnt[u*c+ci] == 1 {
		rm += st.cls[ci].setup
	}
	st.load[u] -= rm
	st.cnt[u*c+ci]--
	add := jb.t
	if st.cnt[v*c+ci] == 0 {
		add += st.cls[ci].setup
	}
	st.load[v] += add
	st.cnt[v*c+ci]++
	st.assign[j] = int32(v)
}

// dfs is the branch-and-bound core: place flat job j on every
// distinguishable machine, bounded by the splittable relaxation on the
// remaining load.
func (st *bbState) dfs(ctx context.Context, j int) (bool, error) {
	st.nodesUsed++
	if st.nodesUsed > st.nodeLimit {
		return false, &BudgetError{}
	}
	if st.nodesUsed%4096 == 0 && ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}
	if j == len(st.jobs) {
		return true, nil
	}
	jb := &st.jobs[j]
	cls := jb.cls

	// Lower bound on the load still to be scheduled: remaining work of
	// the current class plus setups for machines it still must open, plus
	// the precomputed demand of every untouched class (classes are placed
	// in order, so classes before cls are complete and classes after it
	// are untouched).
	free := int64(st.m)*st.T - st.totalLoad
	needMach := ceilDiv(st.remWork[cls], st.cap[cls])
	if st.bigRem[j] > needMach {
		needMach = st.bigRem[j]
	}
	extra := needMach - st.openCount[cls]
	if extra < 0 {
		extra = 0
	}
	remNeed := st.remWork[cls] + extra*st.cls[cls].setup + st.sufNeed[cls+1]
	if remNeed > free {
		return false, nil
	}

	startU := 0
	if jb.eqPrev {
		// Equal jobs of one class are interchangeable: force
		// non-decreasing machine indices.
		startU = int(st.assign[j-1])
	}

	// Candidate collection: one pass over the machines accounting dead
	// slack (residual below the smallest remaining job — unusable in any
	// extension) and gathering distinguishable feasible targets.  Machines
	// in identical states for this job (same load, same setup status) root
	// isomorphic subtrees, so only the first of each group is kept.
	var cand []int32
	var key []int64
	if st.cand != nil {
		base := j * st.m
		cand = st.cand[base : base : base+st.m]
		key = st.candKey[base : base : base+st.m]
	} else {
		cand = make([]int32, 0, st.m)
		key = make([]int64, 0, st.m)
	}
	dead := int64(0)
	seenEmpty := false
	for u := 0; u < st.m; u++ {
		if st.load[u] == 0 {
			if seenEmpty {
				break // identical empty machines form a suffix
			}
			seenEmpty = true
		}
		res := st.T - st.load[u]
		if res < st.minTSuf[j] {
			dead += res
			continue // cannot host any remaining job
		}
		if u < startU {
			continue
		}
		need := jb.t
		open := st.open(u, cls)
		if !open {
			need += st.cls[cls].setup
		}
		if need > res {
			continue
		}
		dup := false
		for _, v := range cand {
			if st.load[v] == st.load[u] && st.open(int(v), cls) == open {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		// Branch order key: open-class machines first, then minimal slack
		// (best fit), ties on index.  The leftmost descent then behaves
		// like best-fit-decreasing with full backtracking behind it.
		k := res - need
		if !open {
			k += 1 << 60
		}
		cand = append(cand, int32(u))
		key = append(key, k)
	}
	// The volume bound again, now charging certified-dead slack against
	// the free capacity.  On tight probes nearly every misplacement
	// strands residual below the smallest job, so this prune carries the
	// endgame.
	if remNeed > free-dead {
		return false, nil
	}
	// Deterministic insertion sort; candidate lists are at most m long.
	for a := 1; a < len(cand); a++ {
		for b := a; b > 0 && key[b] < key[b-1]; b-- {
			key[b], key[b-1] = key[b-1], key[b]
			cand[b], cand[b-1] = cand[b-1], cand[b]
		}
	}
	for _, cu := range cand {
		u := int(cu)
		add := st.place(j, u)
		ok, err := st.dfs(ctx, j+1)
		if ok || err != nil {
			return ok, err
		}
		st.unplace(j, u, add)
	}
	return false, nil
}

// buildSchedule materializes the witness assignment as a non-preemptive
// schedule: per machine, batches in class-major order, each batch a setup
// slot followed by its jobs, packed from time zero.
func (st *bbState) buildSchedule(assign []int32, opt int64) *sched.Schedule {
	out := &sched.Schedule{Variant: sched.NonPreemptive, T: sched.R(opt)}
	b := sched.NewMachineBuilder()
	for u := 0; u < st.m; u++ {
		lastCls := int32(-1)
		for j := range st.jobs {
			if assign[j] != int32(u) {
				continue
			}
			jb := &st.jobs[j]
			cl := &st.cls[jb.cls]
			if jb.cls != lastCls {
				b.Place(sched.SlotSetup, int(cl.orig), -1, sched.R(cl.setup))
				lastCls = jb.cls
			}
			b.Place(sched.SlotJob, int(cl.orig), int(jb.origJob), sched.R(jb.t))
		}
		if len(b.Slots()) > 0 {
			out.AddMachine(b.EndMachine())
		}
	}
	return out
}
