// Package wrap implements Batch Wrapping (Deppert & Jansen, SPAA 2019,
// Appendix A.1): scheduling a wrap sequence of batches (a setup followed by
// the jobs of its class) into a wrap template (a list of free time gaps,
// at most one per machine) in McNaughton wrap-around style.
//
// When an item hits the upper border of a gap it is handled as in the
// paper's Wrap/Split procedures: a setup is moved whole below the next gap;
// a job is split, the first piece ends at the border, and the remainder
// continues at the start of the next gap with a fresh setup placed directly
// below that gap.
//
// The template may end with a "tail run" of identical gaps (same start and
// end on many machines).  Pieces that span several identical tail gaps are
// emitted as machine runs with multiplicities, which is the trick the paper
// uses (proof of Theorem 7) to make the splittable algorithm run in
// O(n + c) even when m is much larger than n.
package wrap

import (
	"errors"
	"fmt"

	"setupsched/sched"
)

// Gap is one free interval [A, B) on a specific machine.
type Gap struct {
	A, B sched.Rat
}

// Span returns B - A.
func (g Gap) Span() sched.Rat { return g.B.Sub(g.A) }

// TailRun describes Count additional identical gaps [A, B), one per unused
// machine, following the explicit gaps.
type TailRun struct {
	Count int64
	A, B  sched.Rat
}

// Item is one element of a wrap sequence.
type Item struct {
	Kind  sched.SlotKind
	Class int
	Job   int // -1 for setups
	Len   sched.Rat
}

// Sequence builds a wrap sequence [s_i, C_i]... batch by batch.
type Sequence struct {
	Items  []Item
	total  sched.Rat
	setups int // setup items in Items
}

// NewSequence returns an empty sequence with room for items items; the
// builders know their item counts exactly, so Items never grows.
func NewSequence(items int) *Sequence {
	return &Sequence{Items: make([]Item, 0, items)}
}

// AddSetup appends a setup item for the class (skipped when s == 0).
func (q *Sequence) AddSetup(class int, s int64) {
	if s == 0 {
		return
	}
	q.Items = append(q.Items, Item{Kind: sched.SlotSetup, Class: class, Job: -1, Len: sched.R(s)})
	q.total = q.total.AddInt(s)
	q.setups++
}

// AddJob appends a job piece of the given rational length (skipped when
// the length is zero).
func (q *Sequence) AddJob(class, job int, length sched.Rat) {
	if length.Sign() < 0 {
		panic("wrap: negative job length")
	}
	if length.IsZero() {
		return
	}
	q.Items = append(q.Items, Item{Kind: sched.SlotJob, Class: class, Job: job, Len: length})
	q.total = q.total.Add(length)
}

// AddBatch appends a setup followed by all jobs of the class.
func (q *Sequence) AddBatch(class int, setup int64, jobs []int64) {
	q.AddSetup(class, setup)
	for j, t := range jobs {
		q.AddJob(class, j, sched.R(t))
	}
}

// Load returns L(Q), the total length of all items.
func (q *Sequence) Load() sched.Rat { return q.total }

// Len returns the number of items.
func (q *Sequence) Len() int { return len(q.Items) }

// Placement is the result of wrapping a sequence into a template.  Its
// slot lists are capacity-capped windows of two arenas (see
// sched.MachineBuilder), each sized before its first slot lands: one for
// the explicit gaps, whose slots every caller copies onto machines that
// already hold slots, and one for the tail, whose runs become machines of
// the schedule as they are.
type Placement struct {
	// Machines[g] holds the slots placed on the machine of explicit gap g
	// (possibly including one setup below the gap start), in time order.
	// Entries may be empty when the sequence ended early.
	Machines [][]sched.Slot
	// Tail holds machine runs placed on tail-run machines, in machine
	// order.  The sum of their counts is at most the tail count.  Their
	// arena is sized when the wrap first reaches the tail, from the items
	// still to place.
	Tail []sched.MachineRun
	// TailUsed is the number of tail machines that received load.
	TailUsed int64
}

var (
	// ErrTemplateTooSmall reports that the template cannot hold the
	// sequence (S(omega) < L(Q) or a border case exhausted the gaps).
	ErrTemplateTooSmall = errors.New("wrap: template too small for sequence")
	// ErrSetupBelowGap reports that a setup did not fit below a gap.
	ErrSetupBelowGap = errors.New("wrap: no room for setup below gap")
)

// wrapState tracks the cursor during wrapping.  The open gap's slots
// accumulate as b's open machine; b is the explicit gaps' arena until
// the wrap reaches the tail, and the tail's arena from then on.
type wrapState struct {
	gaps   []Gap
	tail   TailRun
	q      *Sequence
	place  *Placement
	b      *sched.MachineBuilder
	inTail bool // b is the tail's arena
	gapIdx int  // next explicit gap to open; len(gaps)+k for tail machine k
	curGap Gap
	open   bool
	t      sched.Rat // cursor within the open gap
	setups []int64   // per-class setup times

	item       int // index of the item being placed
	setupsDone int // setup items placed before it
}

// Wrap places the sequence q into the template formed by the explicit gaps
// followed by the optional tail run.  It returns ErrTemplateTooSmall if the
// template's total span is insufficient.
//
// setups must hold the per-class setup times; they are consulted when a
// split job needs a fresh setup below the next gap.
func Wrap(gaps []Gap, tail TailRun, q *Sequence, setups []int64) (*Placement, error) {
	// Capacity pre-check: S(omega) >= L(Q).
	var span sched.Rat
	for _, g := range gaps {
		if g.A.Sign() < 0 || g.B.Cmp(g.A) <= 0 {
			return nil, fmt.Errorf("wrap: malformed gap [%s,%s)", g.A, g.B)
		}
		span = span.Add(g.Span())
	}
	explicitSpan := span
	if tail.Count > 0 {
		if tail.A.Sign() < 0 || tail.B.Cmp(tail.A) <= 0 {
			return nil, fmt.Errorf("wrap: malformed tail gap [%s,%s)", tail.A, tail.B)
		}
		span = span.Add(tail.B.Sub(tail.A).MulInt(tail.Count))
	}
	if span.Cmp(q.Load()) < 0 {
		return nil, fmt.Errorf("%w: S=%s < L=%s", ErrTemplateTooSmall, span, q.Load())
	}

	st := &wrapState{
		gaps:   gaps,
		tail:   tail,
		q:      q,
		place:  &Placement{Machines: make([][]sched.Slot, len(gaps))},
		setups: setups,
	}
	if len(gaps) > 0 {
		st.b = sched.NewArenaBuilder(explicitSlots(gaps, explicitSpan, q))
	}
	for i := range q.Items {
		st.item = i
		if err := st.placeItem(&q.Items[i]); err != nil {
			return nil, err
		}
		if q.Items[i].Kind == sched.SlotSetup {
			st.setupsDone++
		}
	}
	st.closeGap()
	return st.place, nil
}

// enterTail switches emission to the tail's arena the first time the
// wrap reaches the tail, with no machine open.
func (st *wrapState) enterTail() {
	if st.inTail {
		return
	}
	slots, runs := tailBounds(st.tail, st.q, st.item, st.setupsDone)
	st.b = sched.NewArenaBuilder(slots)
	st.place.Tail = make([]sched.MachineRun, 0, runs)
	st.inTail = true
}

// advance opens the next gap, optionally placing a setup of class `class`
// directly below its start (class < 0 places nothing).
func (st *wrapState) advance(class int) error {
	st.closeGap()
	var g Gap
	switch {
	case st.gapIdx < len(st.gaps):
		g = st.gaps[st.gapIdx]
	case int64(st.gapIdx-len(st.gaps)) < st.tail.Count:
		g = Gap{A: st.tail.A, B: st.tail.B}
		st.enterTail()
	default:
		return ErrTemplateTooSmall
	}
	st.gapIdx++
	st.curGap = g
	st.open = true
	st.t = g.A
	if class >= 0 {
		s := st.setups[class]
		if s > 0 {
			start := g.A.SubInt(s)
			if start.Sign() < 0 {
				return fmt.Errorf("%w: class %d setup %d below gap start %s", ErrSetupBelowGap, class, s, g.A)
			}
			st.b.PlaceSlots(sched.Slot{Kind: sched.SlotSetup, Class: class, Job: -1, Start: start, End: g.A})
		}
	}
	return nil
}

// closeGap flushes the current machine's slots into the placement.
func (st *wrapState) closeGap() {
	if !st.open {
		return
	}
	slots := st.b.EndMachine()
	idx := st.gapIdx - 1
	if idx < len(st.gaps) {
		st.place.Machines[idx] = slots
	} else if len(slots) > 0 {
		st.place.Tail = append(st.place.Tail, sched.MachineRun{Count: 1, Slots: slots})
		st.place.TailUsed++
	}
	st.open = false
}

// tailLeft returns how many tail gaps remain unopened.
func (st *wrapState) tailLeft() int64 {
	used := int64(st.gapIdx - len(st.gaps))
	if used < 0 {
		used = 0
	}
	return st.tail.Count - used
}

func (st *wrapState) emit(kind sched.SlotKind, class, job int, length sched.Rat) {
	if length.Sign() <= 0 {
		return
	}
	st.b.PlaceAt(kind, class, job, st.t, length)
	st.t = st.b.Top()
}

func (st *wrapState) placeItem(it *Item) error {
	if !st.open {
		// A job opening a fresh gap needs its class setup below the gap
		// (this happens when the previous item ended exactly at a border,
		// e.g. after a bulk run).  A setup item simply starts inside.
		cls := -1
		if it.Kind == sched.SlotJob {
			cls = it.Class
		}
		if err := st.advance(cls); err != nil {
			return err
		}
	}
	if it.Kind == sched.SlotSetup {
		// Fits entirely, or moves whole below the next gap.
		if st.t.Add(it.Len).Cmp(st.curGap.B) <= 0 {
			st.emit(sched.SlotSetup, it.Class, -1, it.Len)
			return nil
		}
		return st.advance(it.Class)
	}
	remaining := it.Len
	for remaining.Sign() > 0 {
		room := st.curGap.B.Sub(st.t)
		if room.Sign() <= 0 {
			// Border reached: continue in the next gap with a fresh setup.
			// Bulk-emit full tail gaps when the piece spans many of them.
			if st.tailLeft() > 0 && st.gapIdx >= len(st.gaps) {
				gapLen := st.tail.B.Sub(st.tail.A)
				full := fullGapCount(remaining, gapLen)
				if full > st.tailLeft() {
					full = st.tailLeft()
				}
				if full >= 2 {
					st.closeGap()
					st.enterTail()
					st.fullGapSlots(it)
					st.place.Tail = append(st.place.Tail, sched.MachineRun{Count: full, Slots: st.b.EndMachine()})
					st.place.TailUsed += full
					st.gapIdx += int(full)
					remaining = remaining.Sub(gapLen.MulInt(full))
					if remaining.Sign() == 0 {
						return nil
					}
					continue
				}
			}
			if err := st.advance(it.Class); err != nil {
				return err
			}
			continue
		}
		take := sched.MinRat(remaining, room)
		st.emit(sched.SlotJob, it.Class, it.Job, take)
		remaining = remaining.Sub(take)
	}
	return nil
}

// fullGapCount returns floor(remaining / gapLen).
func fullGapCount(remaining, gapLen sched.Rat) int64 {
	ratio := remaining.DivInt(gapLen.Num()).MulInt(gapLen.Den())
	return ratio.Floor()
}

// fullGapSlots places the slot layout of one fully consumed tail gap as
// the open machine: an optional setup below the gap plus a job piece
// spanning the gap.
func (st *wrapState) fullGapSlots(it *Item) {
	if s := st.setups[it.Class]; s > 0 {
		st.b.PlaceSlots(sched.Slot{
			Kind: sched.SlotSetup, Class: it.Class, Job: -1,
			Start: st.tail.A.SubInt(s), End: st.tail.A,
		})
	}
	st.b.PlaceSlots(sched.Slot{
		Kind: sched.SlotJob, Class: it.Class, Job: it.Job,
		Start: st.tail.A, End: st.tail.B,
	})
}

// explicitSlots sizes the explicit gaps' arena.  Every item emits one
// slot, in its gap or (a setup) below the next, and opening a gap costs
// at most one more piece of the job crossing into it plus a setup below
// the gap.  Job pieces fill gap span, so only items that start before the
// jobs ahead of them fill the explicit span can land there.  The gaps
// opened are estimated as those the load fills in order plus one per
// setup that might not fit; the arena continues in a fresh one should
// that fall short, and every caller copies these slots onto its own
// machines anyway.
func explicitSlots(gaps []Gap, span sched.Rat, q *Sequence) int {
	items, setups := 0, 0
	var jobLoad sched.Rat
	for k := range q.Items {
		if !jobLoad.Less(span) {
			break
		}
		it := &q.Items[k]
		items++
		if it.Kind == sched.SlotSetup {
			setups++
		} else {
			jobLoad = jobLoad.Add(it.Len)
		}
	}
	opened := 1 + setups
	var filled sched.Rat
	for _, g := range gaps {
		if !filled.Less(jobLoad) || opened >= len(gaps) {
			break
		}
		filled = filled.Add(g.Span())
		opened++
	}
	return items + 2*min(opened, len(gaps))
}

// tailBounds bounds the slots and the runs the wrap emits into the tail
// once it reaches it at item from, with setupsDone setup items placed.
//
// Slots: every item emits one slot as above.  A job crosses at most two
// tail borders (a bulk run of full gaps leaves less than one gap of it,
// as does one full gap when no bulk run fits), and a crossing costs at
// most two slots: a piece and its setup below the gap, or a bulk run's
// setup and piece.  A bulk run ending a job exactly also costs the next
// job's setup, so a job adds at most four slots.
//
// That is tight when gaps are many per job, not when jobs are many per
// gap.  There the load bounds the gaps: every tail gap the wrap leaves,
// except the last, is full or was left by a setup that did not fit, so at
// most L/span + 1 + (setup items) tail gaps, counting those inside bulk
// runs, ever open, and each costs at most a piece and a setup.  Tail runs
// number at most the tail gaps opened, and at most the slots.
func tailBounds(tail TailRun, q *Sequence, from, setupsDone int) (slots, runs int) {
	items := len(q.Items) - from
	setupsLeft := q.setups - setupsDone
	perJob := 4*(items-setupsLeft) + 1
	reach := tail.Count
	// The float quotient is off by far less than the +1 of slack added.
	if r := q.total.Float64()/tail.B.Sub(tail.A).Float64() + 2 + float64(setupsLeft); r < float64(reach) {
		reach = int64(r)
	}
	slots = items + int(min(int64(perJob), 2*reach))
	return slots, int(min(reach, int64(slots)))
}
