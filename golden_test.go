package setupsched_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
)

// goldenParams spans the regimes the schedule builders branch on: few
// machines, a mid-size fleet, m well above n (one job per machine, wide
// tail runs), m in the millions (compressed machine runs everywhere) and
// the solve-cold benchmark's shape (m = 4/5 of the classes).
var goldenParams = []schedgen.Params{
	{M: 4, Classes: 12, JobsPer: 5, MaxSetup: 40, MaxJob: 60, Seed: 1},
	{M: 37, Classes: 60, JobsPer: 8, MaxSetup: 300, MaxJob: 200, Seed: 2},
	{M: 5000, Classes: 20, JobsPer: 6, MaxSetup: 100, MaxJob: 1000, Seed: 3},
	{M: 1 << 20, Classes: 8, JobsPer: 3, MaxSetup: 50, MaxJob: 1000000, Seed: 4},
	{M: 200, Classes: 250, JobsPer: 8, MaxSetup: 500, MaxJob: 60, Seed: 5},
}

// scheduleHash hashes a schedule's runs: the run count, then each run's
// multiplicity and slot count, then kind/class/job/start/end of every
// slot in order.  Two schedules hash alike only if they are identical
// slot for slot.
func scheduleHash(s *setupsched.Schedule) uint64 {
	h := fnv.New64a()
	w := func(xs ...int64) {
		var b [8]byte
		for _, x := range xs {
			for i := range b {
				b[i] = byte(uint64(x) >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	w(int64(len(s.Runs)))
	for _, r := range s.Runs {
		w(r.Count, int64(len(r.Slots)))
		for _, sl := range r.Slots {
			w(int64(sl.Kind), int64(sl.Class), int64(sl.Job),
				sl.Start.Num(), sl.Start.Den(), sl.End.Num(), sl.End.Den())
		}
	}
	return h.Sum64()
}

// forEachGoldenSolve solves the schedgen catalog at every goldenParams
// entry under every variant with the exact, epsilon and 2-approximation
// algorithms, calling f with a name for each solve.
func forEachGoldenSolve(t *testing.T, f func(name string, v setupsched.Variant, a setupsched.Algorithm, res *setupsched.Result)) {
	t.Helper()
	ctx := context.Background()
	for _, fam := range schedgen.Families {
		for pi, p := range goldenParams {
			in := fam.Make(p)
			if in.NumJobs() > 100000 {
				continue // manyclasses scales its class count with m
			}
			s, err := setupsched.NewSolver(in)
			if err != nil {
				t.Fatalf("%s/p%d: %v", fam.Name, pi, err)
			}
			for _, v := range []setupsched.Variant{setupsched.Splittable, setupsched.Preemptive, setupsched.NonPreemptive} {
				for _, a := range []setupsched.Algorithm{setupsched.Auto, setupsched.EpsilonSearch, setupsched.TwoApprox} {
					name := fmt.Sprintf("%s/p%d/%s/%s", fam.Name, pi, v.Short(), a)
					res, err := s.Solve(ctx, v, setupsched.WithAlgorithm(a))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					f(name, v, a, res)
				}
			}
		}
	}
}

// goldenLines renders one line per golden solve: makespan, lower bound,
// guess, probes and the schedule hash.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	forEachGoldenSolve(t, func(name string, _ setupsched.Variant, _ setupsched.Algorithm, res *setupsched.Result) {
		lines = append(lines, fmt.Sprintf("%s makespan=%s lb=%s guess=%s probes=%d hash=%016x",
			name, res.Makespan, res.LowerBound, res.Guess, res.Probes, scheduleHash(res.Schedule)))
	})
	return lines
}

// TestBuildersGolden pins every schedule the builders emit, bit for bit,
// to the values recorded in testdata/builders.golden.  A change to how
// schedules are emitted (arena layout, slice sizing) must leave every
// line unchanged.
func TestBuildersGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/builders.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, sweep produced %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden lines differ", bad, len(got))
	}
}

// TestBuilderRunsAreCappedWindows checks the arena shape every builder
// hands out: each run's slot list has cap == len, so appending to one
// machine copies it and leaves the machine after it in the shared arena
// untouched.  It also checks that the arenas were sized right: the runs
// lie back to back in one arena, or in two where a wrap's tail follows
// the builder's own machines (the 3/2 splittable and preemptive
// constructions).  An arena that fell short would have continued in a
// fresh one, breaking the runs into more stretches.
func TestBuilderRunsAreCappedWindows(t *testing.T) {
	forEachGoldenSolve(t, func(name string, v setupsched.Variant, a setupsched.Algorithm, res *setupsched.Result) {
		runs := res.Schedule.Runs
		stretches := 0
		// next is the address just past the previous run, kept as an
		// integer: a pointer one past a window's end may point into
		// another allocation, which -race's pointer checks reject.
		var next uintptr
		for i := range runs {
			w := runs[i].Slots
			if len(w) != cap(w) {
				t.Fatalf("%s: run %d has len %d cap %d", name, i, len(w), cap(w))
			}
			if len(w) == 0 {
				continue
			}
			if uintptr(unsafe.Pointer(&w[0])) != next {
				stretches++
			}
			next = uintptr(unsafe.Pointer(&w[len(w)-1])) + unsafe.Sizeof(w[0])
		}
		limit := 1
		if v != setupsched.NonPreemptive && a != setupsched.TwoApprox {
			limit = 2
		}
		if stretches > limit {
			t.Fatalf("%s: runs lie in %d stretches of memory, want at most %d", name, stretches, limit)
		}
		for i := 0; i+1 < len(runs); i++ {
			next := append([]setupsched.Slot(nil), runs[i+1].Slots...)
			grown := append(runs[i].Slots, setupsched.Slot{Kind: sched.SlotJob, Class: -7, Job: -7})
			if len(grown) != len(runs[i].Slots)+1 || !slices.Equal(next, runs[i+1].Slots) {
				t.Fatalf("%s: appending to run %d changed run %d", name, i, i+1)
			}
		}
	})
}

// TestSolveVerifyAllocsFlatInMachineCount checks that building and
// verifying a schedule costs a fixed number of allocations, however many
// machines it spans: the 2-approximation (no search) followed by Verify
// allocates no more at n = 1e4 jobs on 1000 machines than at n = 1e3 on
// 100.  AllocsPerRun counts process-wide mallocs, so GC is paused to keep
// the runtime's own cleanup allocations out of both readings.
func TestSolveVerifyAllocsFlatInMachineCount(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	for _, v := range []setupsched.Variant{setupsched.Splittable, setupsched.Preemptive, setupsched.NonPreemptive} {
		var allocs [2]float64
		for k, classes := range []int{125, 1250} {
			in := schedgen.Uniform(schedgen.Params{
				M: int64(classes * 4 / 5), Classes: classes, JobsPer: 8, MaxSetup: 500, MaxJob: 60, Seed: 1,
			})
			s, err := setupsched.NewSolver(in)
			if err != nil {
				t.Fatal(err)
			}
			allocs[k] = testing.AllocsPerRun(5, func() {
				res, err := s.Solve(ctx, v, setupsched.WithAlgorithm(setupsched.TwoApprox))
				if err != nil {
					t.Fatal(err)
				}
				if err := setupsched.Verify(in, v, res); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[1] > allocs[0] {
			t.Errorf("%s: solve+verify allocates %.0f/op at n=1e4, %.0f/op at n=1e3", v.Short(), allocs[1], allocs[0])
		}
	}
}
