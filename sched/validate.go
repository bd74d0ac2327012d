package sched

import (
	"fmt"
	"slices"
)

// ValidationError describes a feasibility violation found by Validate.
type ValidationError struct {
	Machine int // index into Runs
	Slot    int // index into the run's slots, or -1
	Reason  string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("sched: invalid schedule (run %d, slot %d): %s", e.Machine, e.Slot, e.Reason)
}

func vErr(run, slot int, format string, args ...any) error {
	return &ValidationError{Machine: run, Slot: slot, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks that the schedule is a feasible solution for the given
// instance under the schedule's Variant.  It verifies:
//
//   - at most in.M machines are used;
//   - slots on each machine are sorted, non-overlapping and start at >= 0;
//   - setup slots have exactly the class setup length and are never split;
//   - every job slot is immediately preceded on its machine by a setup or
//     job slot of the same class ending exactly where it starts (batch
//     rule; classes with setup 0 are exempt);
//   - every job receives exactly its processing time in total (counting
//     run multiplicities);
//   - non-preemptive: every job is a single contiguous slot on one machine;
//   - preemptive: pieces of one job never overlap in time, and runs that
//     contain job slots have multiplicity 1.
//
// The batch rule here is slightly stricter than the paper's model (which
// would allow idle time between a setup and the jobs it enables); all
// constructions in this module satisfy the stricter contiguous rule, and
// the stricter rule implies the paper's.
func (s *Schedule) Validate(in *Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if mc := s.MachineCount(); mc > in.M {
		return vErr(-1, -1, "uses %d machines but instance has m=%d", mc, in.M)
	}

	// Global job indexing for work accounting.
	offsets := make([]int, len(in.Classes)+1)
	for i := range in.Classes {
		offsets[i+1] = offsets[i] + len(in.Classes[i].Jobs)
	}
	n := offsets[len(in.Classes)]
	jobs := make([]jobWork, n)

	for ri := range s.Runs {
		run := &s.Runs[ri]
		if run.Count <= 0 {
			return vErr(ri, -1, "run has non-positive machine count %d", run.Count)
		}
		hasJob := false
		var prev *Slot
		for si := range run.Slots {
			sl := &run.Slots[si]
			if sl.Class < 0 || sl.Class >= len(in.Classes) {
				return vErr(ri, si, "class index %d out of range", sl.Class)
			}
			cls := &in.Classes[sl.Class]
			if sl.Start.Sign() < 0 {
				return vErr(ri, si, "slot starts before time 0")
			}
			if sl.End.Cmp(sl.Start) <= 0 {
				return vErr(ri, si, "slot has non-positive length")
			}
			if prev != nil && sl.Start.Cmp(prev.End) < 0 {
				return vErr(ri, si, "slot at %s overlaps previous slot ending %s", sl.Start, prev.End)
			}
			switch sl.Kind {
			case SlotSetup:
				if sl.Job != -1 {
					return vErr(ri, si, "setup slot has job index %d", sl.Job)
				}
				if sl.Len().CmpInt(cls.Setup) != 0 {
					return vErr(ri, si, "setup slot length %s != s_%d = %d (setups may not be split)", sl.Len(), sl.Class, cls.Setup)
				}
			case SlotJob:
				hasJob = true
				if sl.Job < 0 || sl.Job >= len(cls.Jobs) {
					return vErr(ri, si, "job index %d out of range for class %d", sl.Job, sl.Class)
				}
				// Batch rule.
				if cls.Setup > 0 {
					if prev == nil {
						return vErr(ri, si, "job of class %d scheduled with no preceding setup", sl.Class)
					}
					if prev.Class != sl.Class || !prev.End.Equal(sl.Start) {
						return vErr(ri, si, "job of class %d at %s not contiguous with a class-%d setup or job (prev: class %d ending %s)",
							sl.Class, sl.Start, sl.Class, prev.Class, prev.End)
					}
				}
				jw := &jobs[offsets[sl.Class]+sl.Job]
				jw.done = jw.done.Add(sl.Len().MulInt(run.Count))
				jw.pieces += run.Count
			default:
				return vErr(ri, si, "unknown slot kind %d", sl.Kind)
			}
			prev = sl
		}
		if hasJob && run.Count > 1 && s.Variant != Splittable {
			return vErr(ri, -1, "%s schedule uses a multi-machine run (count=%d) containing job slots", s.Variant.Short(), run.Count)
		}
	}

	// Work accounting.
	for c := range in.Classes {
		for j, t := range in.Classes[c].Jobs {
			jw := &jobs[offsets[c]+j]
			if jw.done.CmpInt(t) != 0 {
				return vErr(-1, -1, "job (%d,%d) received %s of %d processing units", c, j, jw.done, t)
			}
			if s.Variant == NonPreemptive && jw.pieces != 1 {
				return vErr(-1, -1, "non-preemptive job (%d,%d) scheduled in %d pieces", c, j, jw.pieces)
			}
		}
	}
	if s.Variant == Preemptive {
		return s.checkNoSelfOverlap(offsets, jobs)
	}
	return nil
}

// jobWork is the per-job tally of Validate: the work received and the
// number of pieces (counting run multiplicities).
type jobWork struct {
	done   Rat
	pieces int64
}

// interval is one job piece [start, end).
type interval struct{ start, end Rat }

// checkNoSelfOverlap verifies that no two pieces of a preemptive job run
// at the same time.  It buckets the pieces of every job in two or more
// pieces into one flat slice, ordered by job (a counting sort whose
// cursors reuse jobs[g].pieces), and sorts only those small ranges.  Runs
// holding job slots have multiplicity 1 here, so a job's piece count is
// its slot count.
func (s *Schedule) checkNoSelfOverlap(offsets []int, jobs []jobWork) error {
	total := int64(0)
	for g := range jobs {
		if k := jobs[g].pieces; k >= 2 {
			jobs[g].pieces = total // bucket start, advanced as pieces land
			total += k
		} else {
			jobs[g].pieces = -1
		}
	}
	if total == 0 {
		return nil
	}
	flat := make([]interval, total)
	for ri := range s.Runs {
		for _, sl := range s.Runs[ri].Slots {
			if sl.Kind != SlotJob {
				continue
			}
			if jw := &jobs[offsets[sl.Class]+sl.Job]; jw.pieces >= 0 {
				flat[jw.pieces] = interval{sl.Start, sl.End}
				jw.pieces++
			}
		}
	}
	// Each cursor now sits at its bucket's end, and buckets are laid out
	// in job order, so a bucket spans from the previous bucket's end.
	lo := int64(0)
	for g := range jobs {
		hi := jobs[g].pieces
		if hi < 0 {
			continue
		}
		ivs := flat[lo:hi]
		lo = hi
		slices.SortStableFunc(ivs, func(a, b interval) int { return a.start.Cmp(b.start) })
		for k := 1; k < len(ivs); k++ {
			if ivs[k].start.Less(ivs[k-1].end) {
				return vErr(-1, -1, "preemptive job %d runs in parallel with itself: [%s,%s) overlaps [%s,%s)",
					g, ivs[k-1].start, ivs[k-1].end, ivs[k].start, ivs[k].end)
			}
		}
	}
	return nil
}

// CheckMakespanAtMost verifies Makespan() <= bound and returns a
// descriptive error otherwise.
func (s *Schedule) CheckMakespanAtMost(bound Rat) error {
	if mk := s.Makespan(); bound.Less(mk) {
		return fmt.Errorf("sched: makespan %s exceeds bound %s", mk, bound)
	}
	return nil
}
