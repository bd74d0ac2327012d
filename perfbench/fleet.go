package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/big"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"setupsched"
	"setupsched/internal/lb"
	"setupsched/sched"
	"setupsched/serve"
)

// fleetSizes are the job-count tiers of the fleet-cache pool, in equal
// thirds (see coldSizes for why).
var fleetSizes = []int{100, 1_000, 10_000}

const (
	// fleetPool is the number of distinct (instance, variant, algorithm)
	// entries: every combination of tier, family, variant and algorithm
	// once.  It stays far below the 4096-entry result cache of each
	// shard, so eviction order never decides a hit.
	fleetPool = 3 * 6 * 3 * 3
	// fleetNoCacheEvery: the requests for every entry whose index is 9
	// modulo this set no_cache (16 of 162).  The cold entries are chosen
	// by index, not by seed, so every seed solves the same mix of tiers,
	// families, variants and algorithms cold.
	fleetNoCacheEvery = 10
)

// solveAnswer is the part of a solve response the checks read.
type solveAnswer struct {
	Algorithm  string  `json:"algorithm"`
	Makespan   string  `json:"makespan"`
	LowerBound string  `json:"lower_bound"`
	Probes     int     `json:"probes"`
	Cached     bool    `json:"cached"`
	Warm       bool    `json:"warm"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// fleetEntry is one pool entry with its precomputed answers.
type fleetEntry struct {
	fp  string // canonical fingerprint, the lb's routing key
	g   *big.Rat
	ref string // reference makespan of the canonical instance
}

type fleetOp struct {
	entry int
	body  []byte
}

// fleetCache drives POST /v1/solve through an lb.Proxy in front of two
// serve.Server shards, joined by an in-memory transport.
type fleetCache struct {
	entries []fleetEntry
	warmup  [][]byte // one canonical body per entry
	ops     []fleetOp

	proxy  *lb.Proxy
	tp     *fleetTransport
	rec    recorder
	req    http.Request // template of the client request
	body   bodyReader
	answer solveAnswer
}

func newFleetCache(seed int64) (*fleetCache, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &fleetCache{}
	type entry struct {
		in *sched.Instance
		v  sched.Variant
		a  setupsched.Algorithm
	}
	pool := make([]entry, 0, fleetPool)
	for i := 0; i < fleetPool; i++ {
		si, fi := i%3, (i/3)%len(coldFamilies)
		f := coldFamilies[fi]
		in, err := familyInstance(f.name, f.jobsPerCls, fleetSizes[si], seed*1_000_003+int64(i))
		if err != nil {
			return nil, err
		}
		pool = append(pool, entry{in, sched.Variants[(i/18)%3], algorithms[(i/54)%3]})
	}
	for _, e := range pool {
		s, err := setupsched.NewSolver(e.in)
		if err != nil {
			return nil, fmt.Errorf("reference solve: %w", err)
		}
		r, err := s.Solve(context.Background(), e.v, setupsched.WithAlgorithm(e.a))
		if err != nil {
			return nil, fmt.Errorf("reference solve: %w", err)
		}
		w.entries = append(w.entries, fleetEntry{fp: e.in.Fingerprint(), g: guarantee(e.a), ref: r.Makespan.String()})
		b, err := solveBody(e.in, e.v, e.a, false)
		if err != nil {
			return nil, err
		}
		w.warmup = append(w.warmup, b)
	}
	// A pass requests every entry once, in a seeded order, each as a fresh
	// permutation of its classes and jobs.
	for _, ei := range rng.Perm(fleetPool) {
		e := pool[ei]
		noCache := ei%fleetNoCacheEvery == fleetNoCacheEvery-1
		b, err := solveBody(permuted(e.in, rng), e.v, e.a, noCache)
		if err != nil {
			return nil, err
		}
		w.ops = append(w.ops, fleetOp{entry: ei, body: b})
	}
	u, err := url.Parse("http://lb/v1/solve")
	if err != nil {
		return nil, err
	}
	w.req = http.Request{
		Method: http.MethodPost, URL: u, Host: u.Host, RequestURI: u.Path,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}},
	}
	return w, nil
}

// permuted returns a copy of in with its classes, and the jobs of every
// class, in a random order: the same instance to the cache, a different
// body to decode.
func permuted(in *sched.Instance, rng *rand.Rand) *sched.Instance {
	out := &sched.Instance{M: in.M, Classes: make([]sched.Class, len(in.Classes))}
	for i, ci := range rng.Perm(len(in.Classes)) {
		c := in.Classes[ci]
		jobs := make([]int64, len(c.Jobs))
		for j, k := range rng.Perm(len(c.Jobs)) {
			jobs[j] = c.Jobs[k]
		}
		out.Classes[i] = sched.Class{Setup: c.Setup, Jobs: jobs}
	}
	return out
}

// algoWire is the request spelling of each algorithm.
var algoWire = map[setupsched.Algorithm]string{
	setupsched.Auto: "auto", setupsched.EpsilonSearch: "eps", setupsched.TwoApprox: "2approx",
}

func solveBody(in *sched.Instance, v sched.Variant, a setupsched.Algorithm, noCache bool) ([]byte, error) {
	return json.Marshal(&serve.SolveRequest{Instance: in, Variant: v.Short(), Algorithm: algoWire[a], NoCache: noCache})
}

func (w *fleetCache) passLen() int { return len(w.ops) }

// setup builds two shards and the proxy, then fills both shards' caches
// with one pass over the pool.
func (w *fleetCache) setup() error {
	w.tp = &fleetTransport{shards: map[string]http.Handler{
		"a": serve.New(serve.Config{ShardID: "a"}),
		"b": serve.New(serve.Config{ShardID: "b"}),
	}}
	p, err := lb.New(lb.Config{
		Shards: []lb.Shard{{ID: "a", URL: "http://a"}, {ID: "b", URL: "http://b"}},
		// No Timeout: the client then runs the round trip, and with it the
		// shard, on the calling goroutine.
		Client: &http.Client{Transport: w.tp},
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	w.proxy = p
	for i, b := range w.warmup {
		w.do(i, b, nil)
		if _, err := w.check(i, nil); err != nil {
			return fmt.Errorf("warm-up entry %d: %w", i, err)
		}
	}
	return nil
}

func (w *fleetCache) rearm() error { return nil }

// do sends one body through the proxy.
func (w *fleetCache) do(entry int, body []byte, tr *tracer) {
	w.tp.want = w.proxy.Owner(w.entries[entry].fp).ID
	w.tp.hops, w.tp.tr = 0, tr
	w.rec.reset()
	w.body.Reset(body)
	req := w.req
	req.Body = &w.body
	req.ContentLength = int64(len(body))
	if tr == nil {
		w.proxy.ServeHTTP(&w.rec, &req)
		return
	}
	w.tp.parent = tr.begin("lb.handler", tr.root)
	w.proxy.ServeHTTP(&w.rec, &req)
	tr.end(w.tp.parent)
}

func (w *fleetCache) op(i int, tr *tracer) {
	o := &w.ops[i]
	w.do(o.entry, o.body, tr)
}

func (w *fleetCache) finish(i int, tr *tracer) (checked, error) {
	return w.check(w.ops[i].entry, tr)
}

// check decodes the answer to a request for entry and verifies it.
func (w *fleetCache) check(entry int, tr *tracer) (checked, error) {
	e := &w.entries[entry]
	misrouted := w.tp.misrouted
	w.tp.misrouted = false
	w.answer = solveAnswer{}
	decodeErr := json.Unmarshal(w.rec.buf.Bytes(), &w.answer)
	if tr != nil {
		w.traceHop(tr, misrouted)
	}
	switch {
	case w.tp.hops != 1:
		return checked{}, fmt.Errorf("%d shard hops, want 1", w.tp.hops)
	case misrouted:
		return checked{}, fmt.Errorf("misroute: the answering shard is not Proxy.Owner(%s) = %s", e.fp, w.tp.want)
	case w.rec.code != http.StatusOK:
		return checked{}, fmt.Errorf("HTTP %d: %s", w.rec.code, bytes.TrimSpace(w.rec.buf.Bytes()))
	case decodeErr != nil:
		return checked{}, fmt.Errorf("decoding the response: %w", decodeErr)
	}
	return checkAnswer(w.answer.Makespan, w.answer.LowerBound, e.ref, e.g, w.answer.Algorithm)
}

// traceHop books the per-layer samples of the op just finished from its
// spans lb.handler, lb.upstream and the shard's serve span, which it
// renames serve.hit or serve.cold by the answer's cached flag.
func (w *fleetCache) traceHop(tr *tracer, misrouted bool) {
	handler := tr.spans[w.tp.parent].dur()
	tr.addDur("lb.handler_us", handler)
	if w.tp.hops == 1 {
		up := tr.spans[w.tp.parent+1].dur()
		sv := &tr.spans[w.tp.parent+2]
		tr.addDur("lb.upstream_us", up)
		tr.addDur("lb.self_us", handler-up)
		hit := 0.0
		if w.answer.Cached {
			sv.Name, hit = "serve.hit", 1
			tr.addDur("serve.hit_us", sv.dur())
		} else {
			sv.Name = "serve.cold"
			tr.addDur("serve.cold_us", sv.dur())
		}
		tr.add("serve.cache_hit_share", hit)
		tr.addDur("serve.wire_us", sv.dur()-time.Duration(w.answer.ElapsedMS*float64(time.Millisecond)))
	}
	misroutes := 0.0
	if misrouted {
		misroutes = 1
	}
	tr.add("lb.misroutes", misroutes)
}

// fleetTransport is the in-memory network between the proxy and its
// shards: a RoundTripper that hands the proxy's outbound request to the
// shard named by its host, on the calling goroutine, and checks every
// hop's X-Sched-Shard echo against the ring owner of the op's canonical
// fingerprint.  No socket is opened.
type fleetTransport struct {
	shards map[string]http.Handler

	want      string // Proxy.Owner of the op in flight
	hops      int
	misrouted bool
	rec       recorder
	body      bodyReader

	tr     *tracer
	parent int // the op's lb.handler span
}

func (t *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := t.shards[req.URL.Host]
	if h == nil {
		return nil, fmt.Errorf("no shard at %q", req.URL.Host)
	}
	t.hops++
	up, sv := -1, -1
	if t.tr != nil {
		up = t.tr.begin("lb.upstream", t.parent)
		sv = t.tr.begin("serve.solve", up)
	}
	t.rec.reset()
	h.ServeHTTP(&t.rec, req)
	if sv >= 0 {
		t.tr.end(sv)
	}
	if echo := t.rec.header.Get(serve.ShardHeader); echo != t.want {
		t.misrouted = true
	}
	t.body.Reset(t.rec.buf.Bytes())
	resp := &http.Response{
		Status: http.StatusText(t.rec.code), StatusCode: t.rec.code,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: t.rec.header, Body: &t.body, ContentLength: int64(t.rec.buf.Len()),
		Request: req,
	}
	if up >= 0 {
		t.tr.end(up)
	}
	return resp, nil
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	buf    bytes.Buffer
	wrote  bool
}

func (r *recorder) reset() {
	if r.header == nil {
		r.header = http.Header{}
	}
	clear(r.header)
	r.code, r.wrote = 0, false
	r.buf.Reset()
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if !r.wrote {
		r.code, r.wrote = code, true
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.buf.Write(p)
}

// bodyReader is a reusable request or response body.
type bodyReader struct{ bytes.Reader }

func (b *bodyReader) Close() error { return nil }
