package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dyntc"
)

// The traced pass: the same generated op stream, run in-process against
// each layer's public functions — Expr (core), Engine (engine, with the
// WaveLog append inside its wave tap), the snapshot and WAL codecs, the
// Follower, Forest.Query — with a span around every call. Spans are kept
// in memory and written out when the pass ends.

// span is one timed call. Times are nanoseconds since the pass began.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	// Sized so recording never allocates inside a measured loop.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<19)}
}

// begin opens a span: its ID and start time.
func (t *tracer) begin() (int64, int64) { return t.ids.Add(1), int64(time.Since(t.t0)) }

// end records the span and returns its duration.
func (t *tracer) end(name string, id, parent, op, start int64) int64 {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: start, End: end})
	t.mu.Unlock()
	return end - start
}

// byName returns the durations of every span of each name.
func (t *tracer) byName() map[string][]int64 {
	out := map[string][]int64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// selfTimes returns, per span name, each span's duration minus the
// durations of its child spans.
func (t *tracer) selfTimes() map[string][]int64 {
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]int64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start-child[s.ID])
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// plan is the traced pass's input: the workload's op stream, then probes
// of each request kind the stream lacks (so every layer metric has
// samples on every workload), then a run of cross-tree queries.
type plan struct {
	stream, probes, queries []request
	streamOps               int64
}

// makePlan generates the traced pass's requests over the post-setup
// mirrors. The stream is the HTTP phase's (same generator stream), its
// clients interleaved request by request.
func makePlan(w *world, trees []*mirror) *plan {
	p := &plan{}
	gens := w.generators(trees, 100)
	var r request
	for i := 0; i < w.sz.tracedReqs; i++ {
		c := i % len(gens)
		gens[c].next(&r)
		r.client = c
		p.stream = append(p.stream, r.clone())
		p.streamOps += int64(r.nOps())
	}
	var has [numReqKinds]bool
	for i := range p.stream {
		has[p.stream[i].kind] = true
	}
	has[rqValue] = has[rqValue] || has[rqValueBatch]

	// Structural and value probes spread over every tree's nodes.
	rng := newRand(w.seed, 200)
	type ref struct{ tree, node int32 }
	var leaves []ref
	stamps := make([][]bool, len(trees))
	for t, m := range trees {
		stamps[t] = make([]bool, m.slots())
		for id := int32(0); int(id) < m.slots(); id++ {
			if m.live[id] && m.isLeaf(id) {
				leaves = append(leaves, ref{int32(t), id})
			}
		}
	}
	var grown []ref
	if !has[rqGrow] {
		for len(grown) < min(w.sz.probe, len(leaves)/2) {
			x := leaves[rng.IntN(len(leaves))]
			if stamps[x.tree][x.node] {
				continue
			}
			stamps[x.tree][x.node] = true
			m := trees[x.tree]
			k, lv, rv := randOp(rng), randVal(rng), randVal(rng)
			l, rt := m.grow(x.node, k, lv, rv, -1)
			grown = append(grown, x)
			p.probes = append(p.probes, request{kind: rqGrow, tree: int(x.tree),
				ops: []wop{{node: x.node, set: k, v1: lv, v2: rv}}, want: []int64{int64(l), int64(rt)}})
		}
	}
	if !has[rqValue] {
		for i := 0; i < w.sz.probe; i++ {
			t := rng.IntN(len(trees))
			m := trees[t]
			n := int32(rng.IntN(m.slots()))
			if !m.live[n] {
				i--
				continue
			}
			p.probes = append(p.probes, request{kind: rqValue, tree: t, ops: []wop{{node: n}}, want: []int64{m.val[n]}})
		}
	}
	for i := len(grown) - 1; i >= 0; i-- {
		x, v := grown[i], randVal(rng)
		trees[x.tree].collapse(x.node, v, -1)
		p.probes = append(p.probes, request{kind: rqCollapse, tree: int(x.tree), ops: []wop{{node: x.node, v1: v}}})
	}
	m := trees[0]
	stamp := stamps[0]
	if !has[rqSetBatch] {
		var ls []int32
		for id := int32(0); int(id) < m.slots(); id++ {
			if m.live[id] && m.isLeaf(id) {
				ls = append(ls, id)
			}
		}
		for i := 0; i < w.sz.probe/4; i++ {
			r := request{kind: rqSetBatch}
			clear(stamp)
			for len(r.ops) < 16 {
				n := ls[rng.IntN(len(ls))]
				if stamp[n] {
					continue
				}
				stamp[n] = true
				v := randVal(rng)
				m.setLeaf(n, v, -1)
				r.ops = append(r.ops, wop{node: n, v1: v})
			}
			p.probes = append(p.probes, r)
		}
	}
	for i := 0; i < w.sz.probe; i++ {
		var sum int64
		for _, m := range trees {
			sum += m.root()
		}
		p.queries = append(p.queries, request{kind: rqQuery, want: []int64{sum}})
	}
	return p
}

// coreCounts are the heal statistics of the Expr layer's calls.
type coreCounts struct {
	calls                                      int64 // batch calls (waves)
	structWaves, structRecs, rebuildLeaves, re int64
	labelWaves, labelRecs                      int64
}

func (cc *coreCounts) structural(h dyntc.HealStats) {
	cc.calls++
	cc.structWaves++
	cc.structRecs += int64(h.WoundRecords)
	cc.rebuildLeaves += int64(h.RebuildLeaves)
	if h.Resimulated {
		cc.re++
	}
}

func (cc *coreCounts) label(h dyntc.HealStats) {
	cc.calls++
	cc.labelWaves++
	cc.labelRecs += int64(h.WoundRecords)
}

// exprLayer runs requests as direct Expr calls, one goroutine.
type exprLayer struct {
	tr   *tracer
	ring dyntc.Ring
	es   []*dyntc.Expr
	cc   coreCounts
	// reused argument buffers
	ns, opNs []*dyntc.Node
	vs       []int64
	ops      []dyntc.Op
	got      []int64
}

func (x *exprLayer) do(r *request, op int64) []int64 {
	e := x.es[r.tree]
	nodes := e.Tree().Nodes
	got := x.got[:0]
	id, st := x.tr.begin()
	switch r.kind {
	case rqGrow:
		o := r.ops[0]
		l, rt := e.Grow(nodes[o.node], progOp(x.ring, o.set), o.v1, o.v2)
		x.tr.end("core.grow", id, 0, op, st)
		x.cc.structural(e.Stats())
		got = append(got, int64(l.ID), int64(rt.ID))
	case rqCollapse:
		o := r.ops[0]
		e.Collapse(nodes[o.node], o.v1)
		x.tr.end("core.collapse", id, 0, op, st)
		x.cc.structural(e.Stats())
	case rqValue:
		v := e.Value(nodes[r.ops[0].node])
		x.tr.end("core.value", id, 0, op, st)
		x.cc.calls++
		got = append(got, v)
	case rqValueBatch:
		x.ns = x.ns[:0]
		for _, o := range r.ops {
			x.ns = append(x.ns, nodes[o.node])
		}
		vs := e.Values(x.ns)
		x.tr.end("core.value", id, 0, op, st)
		x.cc.calls++
		got = append(got, vs...)
	case rqSetBatch:
		x.ns, x.vs, x.opNs, x.ops = x.ns[:0], x.vs[:0], x.opNs[:0], x.ops[:0]
		for _, o := range r.ops {
			if o.set == kLeaf {
				x.ns, x.vs = append(x.ns, nodes[o.node]), append(x.vs, o.v1)
			} else {
				x.opNs, x.ops = append(x.opNs, nodes[o.node]), append(x.ops, progOp(x.ring, o.set))
			}
		}
		var h1, h2 dyntc.HealStats
		if len(x.ns) > 0 {
			e.SetLeaves(x.ns, x.vs)
			h1 = e.Stats()
		}
		if len(x.opNs) > 0 {
			e.SetOps(x.opNs, x.ops)
			h2 = e.Stats()
		}
		x.tr.end("core.set_batch", id, 0, op, st)
		if len(x.ns) > 0 {
			x.cc.label(h1)
		}
		if len(x.opNs) > 0 {
			x.cc.label(h2)
		}
	case rqQuery:
		var sum int64
		for _, e := range x.es {
			sum += e.Root()
		}
		x.tr.end("core.root_sum", id, 0, op, st)
		got = append(got, sum)
	}
	x.got = got
	return got
}

func (x *exprLayer) pram() dyntc.Metrics {
	var m dyntc.Metrics
	for _, e := range x.es {
		p := e.PRAM()
		m.Work += p.Work
		m.Steps += p.Steps
	}
	return m
}

// engineLayer serves the trees from an in-process Forest on a shared
// scheduler pool, as dyntcd does, with each tree's wave tap appending to
// a WaveLog inside a span parented on the engine call in flight.
type engineLayer struct {
	tr      *tracer
	ring    dyntc.Ring
	pool    *dyntc.SchedPool
	forest  *dyntc.Forest
	engines []*dyntc.Engine
	logs    []*dyntc.WaveLog
	paths   []string
	cur     []inFlight
	tapErr  atomic.Pointer[error]
}

// inFlight is the engine span a tree's wave tap parents its append on.
type inFlight struct{ span, op atomic.Int64 }

func newEngineLayer(tr *tracer, w *world, dir string) (*engineLayer, error) {
	x := &engineLayer{tr: tr, ring: dyntc.ModRing(modP), pool: dyntc.NewSchedPool(0)}
	x.forest = dyntc.NewForest(dyntc.BatchOptions{Pool: x.pool, Workers: runtime.GOMAXPROCS(0)})
	x.cur = make([]inFlight, len(w.snaps))
	for i, snap := range w.snaps {
		en, _, err := x.forest.Restore(treeID(i), snap)
		if err != nil {
			x.close()
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("tree-%d.wal", treeID(i)))
		wl, err := dyntc.NewWaveLog(0, path)
		if err != nil {
			x.close()
			return nil, err
		}
		cur := &x.cur[i]
		en.SetWaveTap(func(wv dyntc.Wave) {
			id, st := tr.begin()
			err := wl.Append(wv)
			tr.end("replog.append", id, cur.span.Load(), cur.op.Load(), st)
			if err != nil {
				x.tapErr.CompareAndSwap(nil, &err)
			}
		})
		x.engines, x.logs, x.paths = append(x.engines, en), append(x.logs, wl), append(x.paths, path)
	}
	return x, nil
}

// close drains the forest, then flushes the logs; safe to call twice.
func (x *engineLayer) close() error {
	if x.forest != nil {
		x.forest.Close()
		x.pool.Close()
		x.forest = nil
	}
	var first error
	for _, wl := range x.logs {
		if err := wl.Close(); err != nil && first == nil {
			first = err
		}
	}
	x.logs = nil
	return first
}

// engineWorker runs one client's requests through the engines.
type engineWorker struct {
	x    *engineLayer
	futs []*dyntc.Future
	got  []int64
}

var engineSpan = [numReqKinds]string{"engine.grow", "engine.collapse", "engine.value", "engine.set_batch", "engine.value", "query.join"}

func (ew *engineWorker) do(r *request, op int64) ([]int64, error) {
	x := ew.x
	en := x.engines[r.tree]
	got := ew.got[:0]
	id, st := x.tr.begin()
	x.cur[r.tree].span.Store(id)
	x.cur[r.tree].op.Store(op)
	var err error
	switch r.kind {
	case rqGrow:
		o := r.ops[0]
		var l, rt int
		l, rt, err = en.GrowID(int(o.node), progOp(x.ring, o.set), o.v1, o.v2)
		got = append(got, int64(l), int64(rt))
	case rqCollapse:
		err = en.CollapseID(int(r.ops[0].node), r.ops[0].v1)
	case rqValue:
		var v int64
		v, err = en.ValueID(int(r.ops[0].node))
		got = append(got, v)
	case rqSetBatch, rqValueBatch:
		// Submit the whole batch before waiting, as dyntcd's /batch does.
		ew.futs = ew.futs[:0]
		for _, o := range r.ops {
			switch {
			case r.kind == rqValueBatch:
				ew.futs = append(ew.futs, en.ValueIDAsync(int(o.node)))
			case o.set == kLeaf:
				ew.futs = append(ew.futs, en.SetLeafIDAsync(int(o.node), o.v1))
			default:
				ew.futs = append(ew.futs, en.SetOpIDAsync(int(o.node), progOp(x.ring, o.set)))
			}
		}
		for _, f := range ew.futs {
			var ferr error
			if r.kind == rqValueBatch {
				var v int64
				v, ferr = f.Value()
				got = append(got, v)
			} else {
				ferr = f.Wait()
			}
			f.Recycle()
			if err == nil {
				err = ferr
			}
		}
	case rqQuery:
		var res dyntc.QueryResult
		res, err = x.forest.Query(dyntc.ForestQuery{Read: dyntc.ReadRoot(), Combine: dyntc.CombineSum()})
		if err == nil && res.Errors != 0 {
			err = fmt.Errorf("query: %d tree errors", res.Errors)
		}
		got = append(got, res.Combined)
	}
	x.tr.end(engineSpan[r.kind], id, 0, op, st)
	ew.got = got
	return got, err
}

// tracedPass runs the workload's stream and probes at the Expr and Engine
// layers, then exercises the codecs and the Follower on what the Engine
// layer logged, and reports the per-layer metrics.
func tracedPass(cfg runCfg, w *world, pristine []*mirror, ld *leader, hp *httpPhase, rssKBPerTree float64, rep *report) (tally, error) {
	var t tally
	tr := newTracer()
	ck := &checker{}
	ring := dyntc.ModRing(modP)
	dir, err := os.MkdirTemp(cfg.workDir, w.name+"-traced-")
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(dir)

	p := makePlan(w, pristine)
	finalRoots := make([]int64, len(pristine))
	for i, m := range pristine {
		finalRoots[i] = m.root()
	}
	// --- core: direct Expr calls ---
	x := &exprLayer{tr: tr, ring: ring}
	for i, snap := range w.snaps {
		id, st := tr.begin()
		e, _, err := dyntc.RestoreExpr(snap)
		tr.end("replog.restore", id, 0, int64(i), st)
		if err != nil {
			return t, err
		}
		x.es = append(x.es, e)
	}
	pm0, ms0, t0 := x.pram(), mallocs(), time.Now()
	for i := range p.stream {
		r := &p.stream[i]
		t.request(ck, r, x.do(r, int64(i)), nil)
	}
	exprS := time.Since(t0).Seconds()
	ms1, pm1 := mallocs(), x.pram()
	streamCalls := x.cc.calls
	for i := range p.probes {
		r := &p.probes[i]
		t.request(ck, r, x.do(r, int64(len(p.stream)+i)), nil)
	}
	var slots, live int
	for i, e := range x.es {
		slots += len(e.Tree().Nodes)
		live += e.Tree().Len()
		t.checkOne(nil, e.Root() == finalRoots[i])
	}
	coreAllocs := float64(ms1-ms0) / float64(p.streamOps)
	x.es = nil

	// --- engine: Forest + Engine calls, WaveLog appends in the tap ---
	el, err := newEngineLayer(tr, w, dir)
	if err != nil {
		return t, err
	}
	defer el.close()
	perClient := make([][]int, w.clients)
	for i := range p.stream {
		c := p.stream[i].client
		perClient[c] = append(perClient[c], i)
	}
	es0, ps0, ems0 := el.forest.Stats(), el.pool.Stats(), mallocs()
	var wg sync.WaitGroup
	tallies := make([]tally, w.clients)
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ew := &engineWorker{x: el}
			for _, i := range perClient[c] {
				r := &p.stream[i]
				got, err := ew.do(r, int64(i))
				tallies[c].request(ck, r, got, err)
			}
		}()
	}
	wg.Wait()
	ems1, es1, ps1 := mallocs(), el.forest.Stats(), el.pool.Stats()
	for _, ct := range tallies {
		t.add(ct)
	}
	ew := &engineWorker{x: el}
	for i := range p.probes {
		r := &p.probes[i]
		got, err := ew.do(r, int64(len(p.stream)+i))
		t.request(ck, r, got, err)
	}
	qms0 := mallocs()
	for i := range p.queries {
		r := &p.queries[i]
		got, err := ew.do(r, int64(len(p.stream)+len(p.probes)+i))
		t.request(ck, r, got, err)
	}
	qms1 := mallocs()
	engSnaps := make([][]byte, len(el.engines))
	for i, en := range el.engines {
		root, err := en.Root()
		t.checkOne(err, root == finalRoots[i])
		if engSnaps[i], err = en.Snapshot(); err != nil {
			return t, err
		}
	}
	if err := el.close(); err != nil {
		return t, err
	}
	if perr := el.tapErr.Load(); perr != nil {
		return t, fmt.Errorf("wave log append: %w", *perr)
	}
	streamKop := float64(p.streamOps) / 1000

	// --- replog codec: WAL decode, snapshot restore and encode ---
	var waves [][]dyntc.Wave
	var decodeMS []float64
	for rep := 0; rep < 3; rep++ {
		waves = waves[:0]
		var total int64
		for i, path := range el.paths {
			id, st := tr.begin()
			ws, err := dyntc.ReadWaveLog(path)
			total += tr.end("replog.wal_decode", id, 0, int64(i), st)
			if err != nil {
				return t, err
			}
			waves = append(waves, ws)
		}
		decodeMS = append(decodeMS, float64(total)/1e6)
	}
	var restoreMS, encodeMS []float64
	var snapBytes int
	for rep := 0; rep < 3; rep++ {
		var rt, et int64
		for i, snap := range w.snaps {
			id, st := tr.begin()
			e, seq, err := dyntc.RestoreExpr(snap)
			rt += tr.end("replog.restore", id, 0, int64(i), st)
			if err != nil {
				return t, err
			}
			id, st = tr.begin()
			data, err := e.Snapshot(seq)
			et += tr.end("replog.snapshot_encode", id, 0, int64(i), st)
			if rep == 0 {
				t.checkOne(err, bytes.Equal(data, snap))
				snapBytes += len(snap)
			}
		}
		restoreMS, encodeMS = append(restoreMS, float64(rt)/1e6), append(encodeMS, float64(et)/1e6)
	}

	// --- replica: Follower.Apply of every logged wave ---
	fs := make([]*dyntc.Follower, len(w.snaps))
	for i, snap := range w.snaps {
		if fs[i], err = dyntc.NewFollower(snap); err != nil {
			return t, err
		}
	}
	var nWaves int64
	applyErrs := make([]error, len(fs))
	rms0 := mallocs()
	for i, f := range fs {
		for j := range waves[i] {
			id, st := tr.begin()
			err := f.Apply(waves[i][j])
			tr.end("replica.apply", id, 0, int64(waves[i][j].Seq), st)
			if err != nil && applyErrs[i] == nil {
				applyErrs[i] = err
			}
			nWaves++
		}
	}
	rms1 := mallocs()
	for i, f := range fs {
		snap, err := f.Snapshot()
		if applyErrs[i] != nil {
			err = applyErrs[i]
		}
		t.checkOne(err, bytes.Equal(snap, engSnaps[i]))
	}

	// --- replog append in isolation, for its allocations ---
	var appendAllocs uint64
	var walBytes int64
	for i, path := range el.paths {
		st, err := os.Stat(path)
		if err != nil {
			return t, err
		}
		walBytes += st.Size()
		wl, err := dyntc.NewWaveLog(0, filepath.Join(dir, fmt.Sprintf("again-%d.wal", i)))
		if err != nil {
			return t, err
		}
		a0 := mallocs()
		for j := range waves[i] {
			if err := wl.Append(waves[i][j]); err != nil {
				wl.Close()
				return t, err
			}
		}
		appendAllocs += mallocs() - a0
		if err := wl.Close(); err != nil {
			return t, err
		}
	}

	// --- dyntcd: GET /healthz round trips against the leader ---
	c := newClient(ld.base)
	for i := 0; i < w.sz.probe; i++ {
		id, st := tr.begin()
		status, err := c.call(http.MethodGet, "/healthz", nil)
		tr.end("dyntcd.healthz", id, 0, int64(i), st)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", status)
		}
		t.checkOne(err, true)
	}
	c.close()

	spanPath := filepath.Join(cfg.workDir, "spans-"+w.name+".jsonl")
	if err := tr.write(spanPath); err != nil {
		return t, err
	}

	// --- metrics ---
	d := tr.byName()
	us := func(name string, q float64) float64 { return float64(pct(d[name], q)) / 1e3 }
	n := func(name string) string { return fmt.Sprintf("n=%d", len(d[name])) }
	per := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	cc := x.cc
	rep.put("dyntcd.healthz_p50_us", us("dyntcd.healthz", 0.5), "us", n("dyntcd.healthz"))
	rep.put("dyntcd.req_bytes_per_op", per(hp.reqBytes, hp.ops), "B", "HTTP phase, body bytes")
	rep.put("dyntcd.resp_bytes_per_op", per(hp.respBytes, hp.ops), "B", "HTTP phase, body bytes")
	for _, k := range []string{"grow", "collapse", "set_batch", "value"} {
		rep.put("engine."+k+"_p50_us", us("engine."+k, 0.5), "us", n("engine."+k))
	}
	rep.put("engine.waves_per_kop", float64(es1.Waves-es0.Waves)/streamKop, "count", "stream")
	rep.put("engine.flushes_per_kop", float64(es1.Flushes-es0.Flushes)/streamKop, "count", "stream")
	rep.put("engine.allocs_per_op", float64(ems1-ems0)/float64(p.streamOps), "count", "stream, whole process")
	for _, k := range []string{"grow", "collapse"} {
		rep.put("core."+k+"_p50_us", us("core."+k, 0.5), "us", n("core."+k))
		rep.put("core."+k+"_p99_us", us("core."+k, 0.99), "us", n("core."+k))
	}
	rep.put("core.records_per_wave", per(cc.structRecs, cc.structWaves), "count", fmt.Sprintf("%d structural waves", cc.structWaves))
	rep.put("core.rebuild_leaves_per_wave", per(cc.rebuildLeaves, cc.structWaves), "count", "")
	rep.put("core.resim_waves", float64(cc.re), "count", "")
	rep.put("core.slots_per_live_node", per(int64(slots), int64(live)), "count", fmt.Sprintf("%d slots, %d live", slots, live))
	rep.put("core.set_batch_p50_us", us("core.set_batch", 0.5), "us", n("core.set_batch"))
	rep.put("core.wound_records_per_wave", per(cc.labelRecs, cc.labelWaves), "count", fmt.Sprintf("%d label waves", cc.labelWaves))
	rep.put("core.value_p50_us", us("core.value", 0.5), "us", n("core.value"))
	rep.put("core.pram_work_per_op", float64(pm1.Work-pm0.Work)/float64(p.streamOps), "count", "stream")
	rep.put("core.pram_steps_per_wave", per(pm1.Steps-pm0.Steps, streamCalls), "count", "stream")
	rep.put("core.allocs_per_op", coreAllocs, "count", "stream")
	rep.put("replog.append_p50_us", us("replog.append", 0.5), "us", n("replog.append"))
	rep.put("replog.wal_bytes_per_wave", per(walBytes, nWaves), "B", fmt.Sprintf("%d waves", nWaves))
	rep.put("replog.allocs_per_append", per(int64(appendAllocs), nWaves), "count", "")
	rep.put("replog.snapshot_encode_ms", median(encodeMS), "ms", "all trees, median of 3")
	rep.put("replog.snapshot_kb", float64(snapBytes)/1024, "KiB", "all trees")
	rep.put("replog.restore_ms", median(restoreMS), "ms", "all trees, median of 3")
	rep.put("replog.wal_decode_ms", median(decodeMS), "ms", "all trees, median of 3")
	rep.put("replica.apply_p50_us", us("replica.apply", 0.5), "us", n("replica.apply"))
	rep.put("replica.apply_p99_us", us("replica.apply", 0.99), "us", n("replica.apply"))
	rep.put("replica.allocs_per_wave", per(int64(rms1-rms0), nWaves), "count", "")
	rep.put("query.join_p50_us", us("query.join", 0.5), "us", n("query.join"))
	rep.put("query.join_p99_us", us("query.join", 0.99), "us", n("query.join"))
	rep.put("query.allocs_per_query", per(int64(qms1-qms0), int64(len(p.queries))), "count", "")
	rep.put("sched.tasks_per_kop", float64(ps1.Tasks-ps0.Tasks)/streamKop, "count", "stream")
	rep.put("sched.steals_per_kop", float64(ps1.Steals-ps0.Steals)/streamKop, "count", "stream")
	rep.put("forest.rss_kb_per_tree", rssKBPerTree, "kB", fmt.Sprintf("set-up, median of %d", setupReps))

	fmt.Fprintf(cfg.out, "%s: the stream as sequential Expr calls took %.4f ms per op (one goroutine, wall clock)\n",
		w.name, exprS*1000/float64(p.streamOps))
	printBreakdown(cfg, tr, d, hp, spanPath)
	return t, nil
}

// printBreakdown prints each span name's p50 total and self time, and
// each request kind's cost by layer: HTTP (timed phase) minus Engine is
// dyntcd's share, Engine minus Expr the engine's.
func printBreakdown(cfg runCfg, tr *tracer, d map[string][]int64, hp *httpPhase, spanPath string) {
	self := tr.selfTimes()
	names := make([]string, 0, len(d))
	for name := range d {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(cfg.out, "spans (%d, written to %s):\n", len(tr.spans), spanPath)
	fmt.Fprintf(cfg.out, "  %-24s %8s %12s %12s\n", "name", "count", "p50_us", "self_p50_us")
	for _, name := range names {
		fmt.Fprintf(cfg.out, "  %-24s %8d %12.2f %12.2f\n", name, len(d[name]),
			float64(pct(d[name], 0.5))/1e3, float64(pct(self[name], 0.5))/1e3)
	}
	fmt.Fprintf(cfg.out, "layer cost by difference (p50, us):\n  %-12s %10s %10s %10s %12s %12s\n",
		"kind", "http", "engine", "core", "http-engine", "engine-core")
	var lat [numReqKinds][]int64
	for _, s := range hp.samples {
		lat[s.kind] = append(lat[s.kind], s.dur)
	}
	for k := reqKind(0); k < numReqKinds; k++ {
		h := lat[k]
		if len(h) == 0 || k == rqQuery {
			continue
		}
		name := reqKindNames[k]
		if k == rqValueBatch {
			name = "value"
		}
		hu := float64(pct(h, 0.5)) / 1e3
		eu := float64(pct(d["engine."+name], 0.5)) / 1e3
		cu := float64(pct(d["core."+name], 0.5)) / 1e3
		fmt.Fprintf(cfg.out, "  %-12s %10.2f %10.2f %10.2f %12.2f %12.2f\n", reqKindNames[k], hu, eu, cu, hu-eu, eu-cu)
	}
}
