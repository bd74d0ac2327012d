package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"setupsched"
	"setupsched/sched"
	"setupsched/schedgen"
	"setupsched/serve"
)

const (
	// driftSessions is the number of live sessions, half replaying
	// schedgen.Churn traces and half schedgen.SetupDrift traces.
	driftSessions = 48
	// driftPoints is the number of solve points each session advances
	// through in one pass (each preceded by the trace's deltas).  Short
	// passes give the per-pass medians many passes to choose from.
	driftPoints = 10
	// driftRefEvery: about one solve point in this many is checked against
	// a fresh NewSolver(raw).Solve of the session's instance.
	driftRefEvery = 4
)

// driftParams is the regime with the machine count close to the class
// count, where most re-solves after a delta warm-start from the previous
// certified bracket.
func driftParams(seed int64) schedgen.Params {
	return schedgen.Params{M: 260, Classes: 310, JobsPer: 8, MaxSetup: 500, MaxJob: 60, Seed: seed}
}

type driftSession struct {
	path       string // /v1/sessions/{id}
	create     []byte
	solve      []byte // solve body of the session's variant
	deltas     [][]byte
	counts     []int    // deltas per segment
	refs       []string // reference makespan per solve point; "" = unchecked
	initialRef string
}

type driftOp struct{ sess, point int }

// sessionDrift drives POST /v1/sessions/{id}/delta followed by
// POST /v1/sessions/{id}/solve on one serve.Server.
type sessionDrift struct {
	sessions []driftSession
	ops      []driftOp

	srv   *serve.Server
	recs  [2]recorder // delta and solve responses of the op in flight
	body  bodyReader
	delta struct {
		Applied int    `json:"applied"`
		Error   string `json:"error"`
	}
	answer solveAnswer
	g      *big.Rat
}

func newSessionDrift(seed int64) (*sessionDrift, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &sessionDrift{g: guarantee(setupsched.Auto)}
	for s := 0; s < driftSessions; s++ {
		regime := schedgen.Churn
		if s%2 == 1 {
			regime = schedgen.SetupDrift
		}
		events := regime(driftParams(seed*1_000_003+int64(s)), driftPoints*4)
		v := sched.Variants[s%3]
		ds, err := newDriftSession(fmt.Sprintf("s%02d", s), v, events, rng)
		if err != nil {
			return nil, err
		}
		w.sessions = append(w.sessions, ds)
	}
	// Ops visit the sessions round robin, one solve point at a time.
	for p := 0; p < driftPoints; p++ {
		for s := range w.sessions {
			if p < len(w.sessions[s].deltas) {
				w.ops = append(w.ops, driftOp{s, p})
			}
		}
	}
	return w, nil
}

// newDriftSession encodes one trace: the create body, one delta body per
// solve point, and reference answers for a seeded sample of solve points
// from a fresh solve of the instance replayed so far.
func newDriftSession(id string, v sched.Variant, events []schedgen.TraceEvent, rng *rand.Rand) (driftSession, error) {
	ds := driftSession{path: "/v1/sessions/" + id}
	if len(events) < 2 || events[0].Base == nil || !events[1].Solve {
		return ds, fmt.Errorf("session %s: trace does not start with a base and a solve point", id)
	}
	var err error
	if ds.create, err = json.Marshal(&serve.SessionCreateRequest{SessionID: id, Instance: events[0].Base}); err != nil {
		return ds, err
	}
	if ds.solve, err = json.Marshal(&serve.SolveRequest{Variant: v.Short()}); err != nil {
		return ds, err
	}
	mirror := events[0].Base.Clone()
	ref := func() (string, error) {
		s, err := setupsched.NewSolver(mirror.Clone())
		if err != nil {
			return "", err
		}
		r, err := s.Solve(context.Background(), v)
		if err != nil {
			return "", err
		}
		return r.Makespan.String(), nil
	}
	if ds.initialRef, err = ref(); err != nil {
		return ds, err
	}
	var seg []sched.Delta
	for _, ev := range events[2:] {
		if ev.Delta != nil {
			if _, err := ev.Delta.Apply(mirror); err != nil {
				return ds, fmt.Errorf("session %s: replaying the trace: %w", id, err)
			}
			seg = append(seg, *ev.Delta)
			continue
		}
		if !ev.Solve || len(seg) == 0 {
			continue
		}
		b, err := json.Marshal(&serve.SessionDeltaRequest{Deltas: seg})
		if err != nil {
			return ds, err
		}
		r := ""
		if rng.Intn(driftRefEvery) == 0 {
			if r, err = ref(); err != nil {
				return ds, err
			}
		}
		ds.deltas = append(ds.deltas, b)
		ds.counts = append(ds.counts, len(seg))
		ds.refs = append(ds.refs, r)
		seg = nil
	}
	return ds, nil
}

func (w *sessionDrift) passLen() int { return len(w.ops) }

// serve sends one request to the server, recording into rec.
func (w *sessionDrift) serve(rec *recorder, method, path string, body []byte) {
	rec.reset()
	w.body.Reset(body)
	req := &http.Request{
		Method: method, URL: &url.URL{Path: path}, RequestURI: path, Host: "shard",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{},
		Body: &w.body, ContentLength: int64(len(body)),
	}
	w.srv.ServeHTTP(rec, req)
}

// setup builds the server and arms it: every session created and solved
// cold once.
func (w *sessionDrift) setup() error {
	w.srv = serve.New(serve.Config{})
	return w.arm()
}

func (w *sessionDrift) arm() error {
	for i := range w.sessions {
		ds := &w.sessions[i]
		w.serve(&w.recs[0], http.MethodPost, "/v1/sessions", ds.create)
		if w.recs[0].code != http.StatusCreated {
			return fmt.Errorf("creating %s: HTTP %d: %s", ds.path, w.recs[0].code, bytes.TrimSpace(w.recs[0].buf.Bytes()))
		}
		w.serve(&w.recs[1], http.MethodPost, ds.path+"/solve", ds.solve)
		if _, err := w.checkSolve(ds.initialRef); err != nil {
			return fmt.Errorf("first solve of %s: %w", ds.path, err)
		}
	}
	return nil
}

// rearm deletes every session and arms the server again, so the next pass
// replays the same deltas against the same states.  A forced collection
// then clears the discarded sessions before timing resumes.
func (w *sessionDrift) rearm() error {
	for i := range w.sessions {
		w.serve(&w.recs[0], http.MethodDelete, w.sessions[i].path, nil)
		if w.recs[0].code != http.StatusNoContent {
			return fmt.Errorf("deleting %s: HTTP %d", w.sessions[i].path, w.recs[0].code)
		}
	}
	if err := w.arm(); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

func (w *sessionDrift) op(i int, tr *tracer) {
	o := w.ops[i]
	ds := &w.sessions[o.sess]
	if tr == nil {
		w.serve(&w.recs[0], http.MethodPost, ds.path+"/delta", ds.deltas[o.point])
		w.serve(&w.recs[1], http.MethodPost, ds.path+"/solve", ds.solve)
		return
	}
	sp := tr.begin("serve.delta", tr.root)
	w.serve(&w.recs[0], http.MethodPost, ds.path+"/delta", ds.deltas[o.point])
	tr.end(sp)
	sp = tr.begin("serve.session_solve", tr.root)
	w.serve(&w.recs[1], http.MethodPost, ds.path+"/solve", ds.solve)
	tr.end(sp)
}

func (w *sessionDrift) finish(i int, tr *tracer) (checked, error) {
	o := w.ops[i]
	ds := &w.sessions[o.sess]
	d := &w.recs[0]
	if d.code != http.StatusOK {
		return checked{}, fmt.Errorf("delta: HTTP %d: %s", d.code, bytes.TrimSpace(d.buf.Bytes()))
	}
	w.delta.Applied, w.delta.Error = 0, ""
	if err := json.Unmarshal(d.buf.Bytes(), &w.delta); err != nil {
		return checked{}, fmt.Errorf("decoding the delta response: %w", err)
	}
	if w.delta.Applied != ds.counts[o.point] {
		return checked{}, fmt.Errorf("delta: %d of %d applied: %s", w.delta.Applied, ds.counts[o.point], w.delta.Error)
	}
	c, err := w.checkSolve(ds.refs[o.point])
	if err != nil || tr == nil {
		return c, err
	}
	spans := tr.spans[len(tr.spans)-2:]
	solve := spans[1].dur()
	elapsed := time.Duration(w.answer.ElapsedMS * float64(time.Millisecond))
	tr.addDur("serve.delta_us", spans[0].dur())
	tr.addDur("serve.session_solve_us", solve)
	tr.addDur("serve.wire_us", solve-elapsed)
	tr.addDur("stream.solve_us", elapsed)
	cached := 0.0
	if w.answer.Cached {
		cached = 1
	} else {
		warm := 0.0
		if w.answer.Warm {
			warm = 1
		}
		tr.add("stream.warm_share", warm)
		tr.add("stream.probes_per_solve", float64(w.answer.Probes))
	}
	tr.add("serve.cache_hit_share", cached)
	return c, nil
}

// checkSolve decodes and checks the solve response in recs[1].
func (w *sessionDrift) checkSolve(ref string) (checked, error) {
	s := &w.recs[1]
	if s.code != http.StatusOK {
		return checked{}, fmt.Errorf("solve: HTTP %d: %s", s.code, bytes.TrimSpace(s.buf.Bytes()))
	}
	w.answer = solveAnswer{}
	if err := json.Unmarshal(s.buf.Bytes(), &w.answer); err != nil {
		return checked{}, fmt.Errorf("decoding the solve response: %w", err)
	}
	return checkAnswer(w.answer.Makespan, w.answer.LowerBound, ref, w.g, w.answer.Algorithm)
}
