package wrap

import (
	"errors"
	"math/rand"
	"testing"
	"unsafe"

	"setupsched/sched"
)

// collect assembles a full Schedule from a placement plus pre-existing
// machine content (nil for fresh machines).
func collect(p *Placement, pre [][]sched.Slot, v sched.Variant) *sched.Schedule {
	s := &sched.Schedule{Variant: v}
	for g, slots := range p.Machines {
		var all []sched.Slot
		if pre != nil {
			all = append(all, pre[g]...)
		}
		all = append(all, slots...)
		s.AddMachine(all)
	}
	for _, r := range p.Tail {
		s.AddRun(r.Count, r.Slots)
	}
	return s
}

func seqLoad(t *testing.T, q *Sequence) sched.Rat {
	t.Helper()
	var sum sched.Rat
	for _, it := range q.Items {
		sum = sum.Add(it.Len)
	}
	if !sum.Equal(q.Load()) {
		t.Fatalf("sequence load mismatch: %s vs %s", sum, q.Load())
	}
	return sum
}

func TestWrapSingleGapFits(t *testing.T) {
	in := &sched.Instance{M: 1, Classes: []sched.Class{{Setup: 2, Jobs: []int64{3, 4}}}}
	var q Sequence
	q.AddBatch(0, 2, in.Classes[0].Jobs)
	seqLoad(t, &q)
	gaps := []Gap{{A: sched.R(0), B: sched.R(9)}}
	p, err := Wrap(gaps, TailRun{}, &q, []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.NonPreemptive)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !s.Makespan().Equal(sched.R(9)) {
		t.Errorf("makespan = %s", s.Makespan())
	}
}

func TestWrapSplitsJobAcrossGaps(t *testing.T) {
	// One class, setup 1, one job of length 10; two gaps of span 6 each
	// with room for a setup below the second gap.
	in := &sched.Instance{M: 2, Classes: []sched.Class{{Setup: 1, Jobs: []int64{10}}}}
	var q Sequence
	q.AddBatch(0, 1, in.Classes[0].Jobs)
	gaps := []Gap{
		{A: sched.R(0), B: sched.R(6)},
		{A: sched.R(1), B: sched.R(7)},
	}
	p, err := Wrap(gaps, TailRun{}, &q, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.Splittable)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	// First machine: setup [0,1), piece [1,6).  Second: setup [0,1) below
	// gap, piece [1,6).
	if len(p.Machines[0]) != 2 || len(p.Machines[1]) != 2 {
		t.Fatalf("unexpected slot counts: %d, %d", len(p.Machines[0]), len(p.Machines[1]))
	}
	if !p.Machines[1][0].Start.Equal(sched.R(0)) || p.Machines[1][0].Kind != sched.SlotSetup {
		t.Errorf("continuation setup not below gap: %+v", p.Machines[1][0])
	}
}

func TestWrapMovesSetupBelowNextGap(t *testing.T) {
	// Two classes; the second setup would cross the first gap's border, so
	// it must move whole below the second gap.
	in := &sched.Instance{M: 2, Classes: []sched.Class{
		{Setup: 2, Jobs: []int64{3}},
		{Setup: 4, Jobs: []int64{2}},
	}}
	var q Sequence
	q.AddBatch(0, 2, in.Classes[0].Jobs)
	q.AddBatch(1, 4, in.Classes[1].Jobs)
	gaps := []Gap{
		{A: sched.R(0), B: sched.R(7)}, // room for 2+3, then 4 would cross
		{A: sched.R(5), B: sched.R(11)},
	}
	p, err := Wrap(gaps, TailRun{}, &q, []int64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.NonPreemptive)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	// The class-1 setup occupies [1,5) below gap 2 and its job [5,7).
	m1 := p.Machines[1]
	if len(m1) != 2 || m1[0].Kind != sched.SlotSetup || !m1[0].Start.Equal(sched.R(1)) {
		t.Errorf("setup below gap misplaced: %+v", m1)
	}
}

func TestWrapBorderExactSetupThenJob(t *testing.T) {
	// The setup ends exactly at the border; the job must open the next gap
	// with a fresh setup below it.
	in := &sched.Instance{M: 2, Classes: []sched.Class{{Setup: 3, Jobs: []int64{4}}}}
	var q Sequence
	q.AddBatch(0, 3, in.Classes[0].Jobs)
	gaps := []Gap{
		{A: sched.R(0), B: sched.R(3)},
		{A: sched.R(3), B: sched.R(8)},
	}
	p, err := Wrap(gaps, TailRun{}, &q, []int64{3})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.Splittable)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if got := s.SetupCount(); got != 2 {
		t.Errorf("setups = %d, want 2 (one wasted at border)", got)
	}
}

func TestWrapTemplateTooSmall(t *testing.T) {
	var q Sequence
	q.AddBatch(0, 1, []int64{100})
	gaps := []Gap{{A: sched.R(0), B: sched.R(5)}}
	_, err := Wrap(gaps, TailRun{}, &q, []int64{1})
	if !errors.Is(err, ErrTemplateTooSmall) {
		t.Errorf("err = %v, want ErrTemplateTooSmall", err)
	}
}

func TestWrapSetupDoesNotFitBelowGap(t *testing.T) {
	var q Sequence
	q.AddBatch(0, 3, []int64{4, 4})
	gaps := []Gap{
		{A: sched.R(0), B: sched.R(8)},
		{A: sched.R(2), B: sched.R(8)}, // only 2 below gap, setup is 3
	}
	_, err := Wrap(gaps, TailRun{}, &q, []int64{3})
	if !errors.Is(err, ErrSetupBelowGap) {
		t.Errorf("err = %v, want ErrSetupBelowGap", err)
	}
}

func TestWrapTailRunCapacityCheck(t *testing.T) {
	// Load 5002 against 1000 tail gaps of span 5 (capacity 5000): the
	// wrap must refuse up front.
	var q Sequence
	q.AddBatch(0, 2, []int64{5000})
	tail := TailRun{Count: 1000, A: sched.R(2), B: sched.R(7)}
	_, err := Wrap(nil, tail, &q, []int64{2})
	if !errors.Is(err, ErrTemplateTooSmall) {
		t.Errorf("err = %v, want ErrTemplateTooSmall", err)
	}
}

func TestWrapTailRunBulkCompression(t *testing.T) {
	// 10 units setup+job per machine; big job covering exactly 200 tail
	// gaps plus change, distinct slot structures must stay tiny.
	in := &sched.Instance{M: 300, Classes: []sched.Class{{Setup: 1, Jobs: []int64{2000}}}}
	var q Sequence
	q.AddBatch(0, 1, in.Classes[0].Jobs)
	tail := TailRun{Count: 300, A: sched.R(1), B: sched.R(11)} // span 10
	p, err := Wrap(nil, tail, &q, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.Splittable)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
	if s.NumSlots() > 8 {
		t.Errorf("run compression failed: %d distinct slots", s.NumSlots())
	}
	if s.MachineCount() > 300 {
		t.Errorf("used %d machines", s.MachineCount())
	}
}

func TestWrapRandomizedFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		c := rng.Intn(5) + 1
		classes := make([]sched.Class, c)
		var q Sequence
		var load int64
		smax := int64(0)
		for i := 0; i < c; i++ {
			s := rng.Int63n(5)
			nj := rng.Intn(4) + 1
			jobs := make([]int64, nj)
			for j := range jobs {
				jobs[j] = rng.Int63n(20) + 1
				load += jobs[j]
			}
			load += s
			if s > smax {
				smax = s
			}
			classes[i] = sched.Class{Setup: s, Jobs: jobs}
			q.AddBatch(i, s, jobs)
		}
		// Template: identical gaps [smax, smax+h) with h chosen so the
		// total span just covers the load.
		h := rng.Int63n(30) + 21 // gap span > max job? not required for splittable
		gapCount := (load + h - 1) / h
		m := gapCount + int64(rng.Intn(3))
		in := &sched.Instance{M: m, Classes: classes}
		setups := make([]int64, c)
		for i := range classes {
			setups[i] = classes[i].Setup
		}
		tail := TailRun{Count: m, A: sched.R(smax), B: sched.R(smax + h)}
		p, err := Wrap(nil, tail, &q, setups)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		s := collect(p, nil, sched.Splittable)
		if err := s.Validate(in); err != nil {
			t.Fatalf("iter %d: %v\n%v", iter, err, s)
		}
		if s.Makespan().CmpInt(smax+h) > 0 {
			t.Fatalf("iter %d: makespan %s over gap top %d", iter, s.Makespan(), smax+h)
		}
	}
}

func TestSequenceHelpers(t *testing.T) {
	var q Sequence
	q.AddSetup(0, 0) // skipped
	q.AddJob(0, 0, sched.Rat{})
	if q.Len() != 0 {
		t.Error("zero items must be skipped")
	}
	q.AddBatch(1, 3, []int64{1, 2})
	if q.Len() != 3 || !q.Load().Equal(sched.R(6)) {
		t.Errorf("batch: len=%d load=%s", q.Len(), q.Load())
	}
}

func TestWrapBulkThenNewJobGetsSetup(t *testing.T) {
	// Regression: job 0 consumes exactly k full tail gaps (bulk run);
	// job 1 then opens a fresh gap and must get a setup below it.
	in := &sched.Instance{M: 10, Classes: []sched.Class{
		{Setup: 3, Jobs: []int64{40, 12}},
	}}
	var q Sequence
	q.AddBatch(0, 3, in.Classes[0].Jobs)
	tail := TailRun{Count: 10, A: sched.R(3), B: sched.R(13)} // span 10
	p, err := Wrap(nil, tail, &q, []int64{3})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.Splittable)
	if err := s.Validate(in); err != nil {
		t.Fatalf("bulk-boundary setup missing: %v\n%v", err, s)
	}
}

func TestWrapZeroSetupClassFirstItem(t *testing.T) {
	// A zero-setup class may legally start a gap without any setup.
	in := &sched.Instance{M: 3, Classes: []sched.Class{
		{Setup: 0, Jobs: []int64{9, 9}},
	}}
	var q Sequence
	q.AddBatch(0, 0, in.Classes[0].Jobs)
	tail := TailRun{Count: 3, A: sched.R(0), B: sched.R(7)}
	p, err := Wrap(nil, tail, &q, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	s := collect(p, nil, sched.Splittable)
	if err := s.Validate(in); err != nil {
		t.Fatal(err)
	}
}

// TestWrapSlotBounds checks the tail arena's bound over random templates:
// explicit gaps of mixed spans, tails of a few to a million machines, and
// jobs from far below to far above a gap, so that setup moves, border
// splits and bulk runs all occur.  The tail arena is sized once, so the
// tail's slot lists must lie back to back in one backing array; a bound
// that fell short would have moved a machine to a fresh array.  Every
// slot list must be a capacity-capped window.
func TestWrapSlotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	capped := func(iter int, w []sched.Slot) {
		if cap(w) != len(w) {
			t.Fatalf("iter %d: window len %d cap %d", iter, len(w), cap(w))
		}
	}
	placed := 0
	for iter := 0; iter < 3000; iter++ {
		c := rng.Intn(6) + 1
		smax := int64(8)
		setups := make([]int64, c)
		var load int64
		items := 0
		maxJob := []int64{5, 40, 400, 100000}[rng.Intn(4)]
		jobs := make([][]int64, c)
		for i := range jobs {
			setups[i] = rng.Int63n(smax + 1)
			jobs[i] = make([]int64, rng.Intn(8)+1)
			for j := range jobs[i] {
				jobs[i][j] = rng.Int63n(maxJob) + 1
				load += jobs[i][j]
			}
			load += setups[i]
			items += 1 + len(jobs[i])
		}
		q := NewSequence(items)
		for i := range jobs {
			q.AddBatch(i, setups[i], jobs[i])
		}
		var gaps []Gap
		var span int64
		for g := rng.Intn(5); g > 0; g-- {
			a := smax + rng.Int63n(10)
			b := a + smax + 1 + rng.Int63n(30)
			gaps = append(gaps, Gap{A: sched.R(a), B: sched.R(b)})
			span += b - a
		}
		h := smax + 1 + rng.Int63n(40)
		count := (max(load-span, 0)+h-1)/h + int64(rng.Intn(3))
		if rng.Intn(4) == 0 {
			count += rng.Int63n(1 << 20)
		}
		tail := TailRun{Count: count, A: sched.R(smax), B: sched.R(smax + h)}
		p, err := Wrap(gaps, tail, q, setups)
		if err != nil {
			continue // a border case exhausted the template; not a sizing question
		}
		placed++
		for _, w := range p.Machines {
			capped(iter, w)
		}
		var next *sched.Slot
		for _, r := range p.Tail {
			w := r.Slots
			capped(iter, w)
			if next != nil && &w[0] != next {
				t.Fatalf("iter %d: tail windows not back to back: arena bound fell short", iter)
			}
			next = (*sched.Slot)(unsafe.Add(unsafe.Pointer(&w[len(w)-1]), unsafe.Sizeof(w[0])))
		}
		if _, runs := tailBounds(tail, q, 0, 0); len(p.Tail) > runs {
			t.Fatalf("iter %d: %d tail runs, bound %d", iter, len(p.Tail), runs)
		}
	}
	if placed < 1000 {
		t.Fatalf("only %d of 3000 random wraps succeeded", placed)
	}
}
