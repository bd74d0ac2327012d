package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"setupsched/sched"
	"setupsched/schedgen"
)

// allSearches returns every search algorithm of a variant, keyed by name.
func allSearches(v sched.Variant) map[string]func(p *Prep, ctl Ctl) (*Result, error) {
	out := map[string]func(p *Prep, ctl Ctl) (*Result, error){
		"eps": func(p *Prep, ctl Ctl) (*Result, error) { return p.SolveEps(ctl, v, 1e-3) },
	}
	switch v {
	case sched.Splittable:
		out["exact32"] = func(p *Prep, ctl Ctl) (*Result, error) { return p.SolveSplitJump(ctl) }
	case sched.Preemptive:
		out["exact32"] = func(p *Prep, ctl Ctl) (*Result, error) { return p.SolvePmtnJump(ctl) }
	default:
		out["exact32"] = func(p *Prep, ctl Ctl) (*Result, error) { return p.SolveNonpSearch(ctl) }
	}
	return out
}

// TestPrepConcurrentUse hammers one shared Prep from many goroutines mixing
// dual evaluations, builds and full searches.  Run under
// -race this is the concurrency-contract regression test for Prep.
func TestPrepConcurrentUse(t *testing.T) {
	in := schedgen.BigJobs(schedgen.Params{M: 8, Classes: 40, JobsPer: 5, MaxSetup: 80, MaxJob: 120, Seed: 7})
	prep := Prepare(in)
	T := prep.TMin(sched.Preemptive).MulInt(3).DivInt(2)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch g % 4 {
				case 0:
					if ev := prep.EvalSplit(T, nil); ev.OK {
						if _, err := prep.BuildSplit(ev); err != nil {
							errs <- err
							return
						}
					}
				case 1:
					if ev := prep.EvalPmtn(T, nil); ev.OK {
						if _, err := prep.BuildPmtn(ev); err != nil {
							errs <- err
							return
						}
					}
				case 2:
					if ev := prep.EvalNonp(T.MulInt(2)); ev.OK {
						if _, err := prep.BuildNonp(ev); err != nil {
							errs <- err
							return
						}
					}
				default:
					if _, err := prep.SolvePmtnJump(Ctl{}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// orderObserver records the probe event stream in arrival order.
type orderObserver struct {
	events []probeEvent
}

type probeEvent struct {
	T        sched.Rat
	finished bool
}

func (o *orderObserver) ProbeStarted(T sched.Rat) {
	o.events = append(o.events, probeEvent{T: T})
}
func (o *orderObserver) ProbeFinished(T sched.Rat, ok bool) {
	o.events = append(o.events, probeEvent{T: T, finished: true})
}
func (o *orderObserver) SearchFinished(string, int) {}

// TestObserverOrdering is the regression test for the bracket.probe
// observer contract: every probe is one ProbeStarted/ProbeFinished pair
// for the same guess with nothing in between, no guess is probed twice
// (so Result.Trace needs no deduplication), and the number of pairs
// matches the reported probe count.
func TestObserverOrdering(t *testing.T) {
	// The second, setup-heavy regime rejects the trivial bound on the
	// setup-dominated families, so their searches genuinely narrow a
	// bracket.
	regimes := []schedgen.Params{
		{M: 5, Classes: 24, JobsPer: 4, MaxSetup: 50, MaxJob: 70, Seed: 11},
		{M: 32, Classes: 40, JobsPer: 3, MaxSetup: 500, MaxJob: 60, Seed: 11},
	}
	maxProbes := 0
	for _, fam := range schedgen.Families {
		for ri, params := range regimes {
			in := fam.Make(params)
			prep := Prepare(in)
			for _, v := range sched.Variants {
				for name, run := range allSearches(v) {
					obs := &orderObserver{}
					res, err := run(prep, Ctl{Obs: obs})
					if err != nil {
						t.Fatalf("%s/%s/%v regime %d: %v", fam.Name, name, v, ri, err)
					}
					tag := fmt.Sprintf("%s/%s/%v regime %d", fam.Name, name, v, ri)
					maxProbes = max(maxProbes, res.Probes)
					if len(obs.events) != 2*res.Probes {
						t.Fatalf("%s: %d events for %d probes", tag, len(obs.events), res.Probes)
					}
					seen := map[string]bool{}
					for i := 0; i < len(obs.events); i += 2 {
						st, fin := obs.events[i], obs.events[i+1]
						if st.finished || !fin.finished || !st.T.Equal(fin.T) {
							t.Fatalf("%s: events %d-%d are not a Started/Finished pair for one guess: %+v %+v",
								tag, i, i+1, st, fin)
						}
						if seen[st.T.String()] {
							t.Errorf("%s: guess %s probed twice", tag, st.T)
						}
						seen[st.T.String()] = true
					}
				}
			}
		}
	}
	if maxProbes < 8 {
		t.Fatalf("no search ran more than %d probes; the regimes no longer exercise the bracket", maxProbes)
	}
}

// TestSearchCancellation checks that a canceled context and an exhausted
// probe budget abort a search with the matching error.
func TestSearchCancellation(t *testing.T) {
	// Setup-heavy regime whose non-preemptive search needs ~11 probes, so
	// both the cancellation and the probe budget genuinely interrupt it.
	in := schedgen.ExpensiveSetups(schedgen.Params{M: 32, Classes: 40, JobsPer: 3, MaxSetup: 500, MaxJob: 60, Seed: 11})
	prep := Prepare(in)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prep.SolveNonpSearch(Ctl{Ctx: ctx}); err == nil {
		t.Fatal("canceled search returned no error")
	} else if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Calibrate the limit against the unbounded run so the search is
	// guaranteed to need more probes than the budget allows.
	full, err := prep.SolveNonpSearch(Ctl{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Probes < 3 {
		t.Fatalf("calibration instance converged in %d probes; need >= 3", full.Probes)
	}
	if _, err := prep.SolveNonpSearch(Ctl{ProbeLimit: 2}); err != ErrProbeLimit {
		t.Fatalf("want ErrProbeLimit, got %v", err)
	}
}
