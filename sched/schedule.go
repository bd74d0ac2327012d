package sched

import "fmt"

// SlotKind distinguishes setup slots from job slots.
type SlotKind uint8

const (
	// SlotSetup is a (non-preemptible) setup occupying [Start, End).
	SlotSetup SlotKind = iota
	// SlotJob is a job piece occupying [Start, End).
	SlotJob
)

// Slot is one contiguous occupation of a machine: either a setup of some
// class or a piece of a job.  Slots are half-open intervals [Start, End).
type Slot struct {
	Kind  SlotKind
	Class int // class index into Instance.Classes
	Job   int // job index within the class; -1 for setups
	Start Rat
	End   Rat
}

// Len returns End - Start.
func (s *Slot) Len() Rat { return s.End.Sub(s.Start) }

// MachineRun is a group of Count machines with identical slot layouts.
//
// Runs with Count > 1 are how the splittable solver represents schedules
// on very large machine counts in O(n + c) space ("machine configurations
// with associated multiplicities" in the paper, Section 3.2): each machine
// in the run processes its own piece of the stated shape, so a job slot of
// length L in a run of Count k accounts for k*L units of that job's work.
type MachineRun struct {
	Count int64
	// Slots is the machine's slot list in time order.  The solvers emit
	// every machine of a schedule through one MachineBuilder, so the runs
	// share one backing array and each Slots is a capacity-capped window
	// of it: appending to one run's Slots copies rather than overwriting
	// the next run's slots.  The shared array lives as long as any run of
	// the schedule does, which is why it is sized to the schedule and
	// never taken from reused scratch.
	Slots []Slot
}

// Schedule is a complete schedule: an ordered list of machine runs.
// Machines not covered by any run are idle.
type Schedule struct {
	// Variant records which feasibility rules the schedule was built for.
	Variant Variant
	// T is the makespan guess the schedule was built against (the dual
	// approximation bound is 3/2*T).  Zero if not applicable.
	T Rat
	// Runs holds the machine configurations in machine order.
	Runs []MachineRun
}

// MachineCount returns the total number of machines used by runs
// (including machines whose slot list is empty).
func (s *Schedule) MachineCount() int64 {
	var m int64
	for i := range s.Runs {
		m += s.Runs[i].Count
	}
	return m
}

// Makespan returns the maximum slot end time across all machines.
func (s *Schedule) Makespan() Rat {
	var mk Rat
	for i := range s.Runs {
		for j := range s.Runs[i].Slots {
			if e := s.Runs[i].Slots[j].End; mk.Less(e) {
				mk = e
			}
		}
	}
	return mk
}

// NumSlots returns the total number of distinct slots (not multiplied by
// run counts).
func (s *Schedule) NumSlots() int {
	n := 0
	for i := range s.Runs {
		n += len(s.Runs[i].Slots)
	}
	return n
}

// SetupCount returns the total number of setup slots scheduled, counting
// run multiplicities.
func (s *Schedule) SetupCount() int64 {
	var n int64
	for i := range s.Runs {
		for j := range s.Runs[i].Slots {
			if s.Runs[i].Slots[j].Kind == SlotSetup {
				n += s.Runs[i].Count
			}
		}
	}
	return n
}

// AddMachine appends a single machine with the given slots and returns its
// index in Runs.
func (s *Schedule) AddMachine(slots []Slot) int {
	s.Runs = append(s.Runs, MachineRun{Count: 1, Slots: slots})
	return len(s.Runs) - 1
}

// AddRun appends a run of count identical machines.
func (s *Schedule) AddRun(count int64, slots []Slot) {
	if count <= 0 {
		return
	}
	s.Runs = append(s.Runs, MachineRun{Count: count, Slots: slots})
}

// String returns a short human-readable summary.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule{%s, machines=%d, slots=%d, makespan=%s}",
		s.Variant.Short(), s.MachineCount(), s.NumSlots(), s.Makespan())
}

// MachineBuilder emits the slot lists of a schedule's machines, one open
// machine at a time, into one shared arena.  EndMachine hands the open
// machine's slots back as the window arena[start:len:len] and opens the
// next machine at time 0, so every machine of a schedule is a
// capacity-capped window of the same backing array (see MachineRun.Slots).
//
// Sized with NewArenaBuilder from an exact count or a tight upper bound of
// the slots to come, the whole schedule costs one allocation.  A full
// arena continues in a fresh one (only the open machine's slots move), so
// a short count costs an extra allocation, never a wrong schedule.  The
// arena escapes into the schedule it builds: it must never come from
// reused scratch or a sync.Pool, or a later build would overwrite a
// schedule still in use.
type MachineBuilder struct {
	arena []Slot
	start int // arena index of the open machine's first slot
	top   Rat
	grown int // slots of all arenas allocated so far
}

// NewMachineBuilder returns a builder with an empty arena that grows as
// slots are placed; for schedules whose slot count is known up front use
// NewArenaBuilder.
func NewMachineBuilder() *MachineBuilder { return &MachineBuilder{} }

// NewArenaBuilder returns a builder whose arena has room for slots slots.
func NewArenaBuilder(slots int) *MachineBuilder {
	return &MachineBuilder{arena: make([]Slot, 0, slots), grown: slots}
}

// Top returns the open machine's top-of-machine time (end of its last
// slot, or of its last zero-length placement).
func (b *MachineBuilder) Top() Rat { return b.top }

// PlaceAt places a slot of the given length starting at the given time,
// which must be >= the current top.  Zero-length slots are dropped.
func (b *MachineBuilder) PlaceAt(kind SlotKind, class, job int, start, length Rat) {
	if length.Sign() <= 0 {
		if length.Sign() < 0 {
			panic("sched: negative slot length")
		}
		if start.Cmp(b.top) > 0 {
			b.top = start
		}
		return
	}
	if start.Cmp(b.top) < 0 {
		panic(fmt.Sprintf("sched: slot placed at %s below machine top %s", start, b.top))
	}
	end := start.Add(length)
	b.push(Slot{Kind: kind, Class: class, Job: job, Start: start, End: end})
	b.top = end
}

// Place appends a slot directly on top of the open machine.
func (b *MachineBuilder) Place(kind SlotKind, class, job int, length Rat) {
	b.PlaceAt(kind, class, job, b.top, length)
}

// PlaceSlots appends copies of already-built slots, which must be sorted
// and start at or above the open machine's top.
func (b *MachineBuilder) PlaceSlots(slots ...Slot) {
	if len(slots) == 0 {
		return
	}
	if slots[0].Start.Cmp(b.top) < 0 {
		panic(fmt.Sprintf("sched: slot placed at %s below machine top %s", slots[0].Start, b.top))
	}
	for _, sl := range slots {
		b.push(sl)
	}
	b.top = slots[len(slots)-1].End
}

// push appends one slot to the open machine.  A full arena continues in
// a fresh one half the size of all arenas so far, so a growing builder
// allocates geometrically and a slightly short count costs a modest
// extra arena.  The closed machines' windows keep the old arena alive,
// so only the open machine's slots are copied.
func (b *MachineBuilder) push(sl Slot) {
	if len(b.arena) == cap(b.arena) {
		open := b.arena[b.start:]
		size := max(b.grown/2, 2*len(open), 8)
		next := make([]Slot, len(open), size)
		copy(next, open)
		b.arena, b.start = next, 0
		b.grown += size
	}
	b.arena = append(b.arena, sl)
}

// Slots returns the open machine's slots so far, capacity-capped.
func (b *MachineBuilder) Slots() []Slot { return b.arena[b.start:len(b.arena):len(b.arena)] }

// EndMachine closes the open machine, returning its slots, and opens the
// next one at time 0.
func (b *MachineBuilder) EndMachine() []Slot {
	slots := b.Slots()
	b.start = len(b.arena)
	b.top = Rat{}
	return slots
}
