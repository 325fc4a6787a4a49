package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"dyntc"
)

// runCfg is one benchmark run: one workload, one seed.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	short    bool
	dyntcd   string    // the dyntcd binary
	workDir  string    // run directories and span files go here
	corrupt  int64     // checker hook: perturb this read's expected answer
	out      io.Writer // the human-readable report
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts ops attempted, failed (HTTP error or wrong answer) and
// answered wrongly.
type tally struct{ attempted, failed, wrong int64 }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
}

// request records one request's ops: all fail on an error, and each
// wrong answer fails one.
func (t *tally) request(ck *checker, r *request, got []int64, err error) {
	k := int64(r.nOps())
	t.attempted += k
	if err != nil {
		t.failed += k
		return
	}
	if bad := int64(ck.check(r, got)); bad > 0 {
		t.failed += bad
		t.wrong += bad
	}
}

// checkOne records one verification: ok, a failure, or a wrong answer.
func (t *tally) checkOne(err error, ok bool) {
	t.attempted++
	switch {
	case err != nil:
		t.failed++
	case !ok:
		t.failed++
		t.wrong++
	}
}

// setupReps is how many times a run starts a leader and restores its
// trees; setup_s is the median.
const setupReps = 5

// report collects metrics and prints each as a line of the
// human-readable report.
type report struct {
	out     io.Writer
	prefix  string
	metrics map[string]metric
}

func (r *report) put(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "%-8s %-28s %14.4f %-6s %s\n", r.prefix, name, v, unit, note)
}

// runWorkload runs one workload end to end: build the trees, set the
// leader up (several times, timing each), drive it over HTTP for the
// configured time, check every answer and the replicated state, and —
// when tracing — run the in-process traced pass.
func runWorkload(cfg runCfg) (*result, error) {
	t0 := time.Now()
	w, err := buildWorld(cfg.workload, cfg.seed, cfg.short)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "%s: built %d tree(s), %d leaves, from seed %d in %.2fs\n",
		w.name, len(w.trees), leavesOf(w.trees), cfg.seed, time.Since(t0).Seconds())
	pristine := w.cloneTrees()

	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setupS, rssKB []float64
	var ld *leader
	defer func() {
		if ld != nil {
			ld.stop()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if ld != nil {
			ld.stop()
			ld = nil
		}
		l, secs, kb, err := setUp(cfg.dyntcd, filepath.Join(dir, fmt.Sprintf("setup%d", i)), w)
		if err != nil {
			return nil, err
		}
		ld = l
		setupS, rssKB = append(setupS, secs), append(rssKB, kb)
	}

	hp, err := timedPhase(cfg, w, ld)
	if err != nil {
		return nil, err
	}
	vt, replayRate, err := verify(w, ld, cfg.out)
	if err != nil {
		return nil, err
	}
	hp.tally.add(vt)

	rep := &report{out: cfg.out, prefix: w.name, metrics: map[string]metric{}}
	res := &result{Metrics: rep.metrics}
	tl := hp.tally
	if cfg.trace {
		pt, err := tracedPass(cfg, w, pristine, ld, hp, median(rssKB), rep)
		if err != nil {
			return nil, err
		}
		tl.add(pt)
	} else {
		hp.report(rep, median(setupS), replayRate, setupS)
	}
	ld.stop()
	ld = nil
	res.Attempted, res.Failed, res.Correct = tl.attempted, tl.failed, tl.wrong == 0
	fmt.Fprintf(cfg.out, "%s: %d ops attempted, %d failed, %d answered wrong; run took %.1fs\n",
		w.name, tl.attempted, tl.failed, tl.wrong, time.Since(t0).Seconds())
	return res, nil
}

func leavesOf(trees []*mirror) int {
	n := 0
	for _, m := range trees {
		n += m.leaves()
	}
	return n
}

// setUp starts a leader and restores every tree from its snapshot with
// PUT /v1/trees/{id}/snapshot, from up to nproc clients. It returns the
// seconds from leader start until every tree serves, and the leader's RSS
// growth per restored tree in kB.
func setUp(bin, dir string, w *world) (*leader, float64, float64, error) {
	t0 := time.Now()
	ld, err := startLeader(bin, dir)
	if err != nil {
		return nil, 0, 0, err
	}
	rss0, err := ld.statusKB("VmRSS")
	if err != nil {
		ld.stop()
		return nil, 0, 0, err
	}
	nc := min(runtime.NumCPU(), len(w.snaps))
	errs := make([]error, nc)
	var wg sync.WaitGroup
	for g := 0; g < nc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(ld.base)
			defer c.close()
			for i := g; i < len(w.snaps); i += nc {
				path := fmt.Sprintf("/v1/trees/%d/snapshot", treeID(i))
				status, err := c.call(http.MethodPut, path, w.snaps[i])
				if err == nil && status != http.StatusCreated {
					err = fmt.Errorf("PUT %s: status %d: %s", path, status, c.resp.String())
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	secs := time.Since(t0).Seconds()
	rss1, err2 := ld.statusKB("VmRSS")
	if err := errors.Join(errors.Join(errs...), err2); err != nil {
		ld.stop()
		return nil, 0, 0, err
	}
	return ld, secs, float64(rss1-rss0) / float64(len(w.snaps)), nil
}

// httpPhase is what the timed phase measured.
type httpPhase struct {
	ops, mutOps, reqs   int64
	elapsed             float64
	samples             []sample
	tally               tally
	cpuS                float64
	peakKB, walBytes    int64
	pram                pramCount // over the counted window
	pramOps             int64     // ops in the counted window
	reqBytes, respBytes int64
}

// sample is one completed request of the timed phase.
type sample struct {
	at, dur int64 // completion time since the phase began, and latency; ns
	ops     int32
	kind    reqKind
}

func (s sample) write() bool { return (&request{kind: s.kind}).mutating() }

// clientRun is one closed-loop client's share of the timed phase.
type clientRun struct {
	c                 *client
	g                 gen
	samples           []sample
	ops, mutOps, reqs int64
	t                 tally
	end               time.Time
	firstErr          error
}

// loop sends whole rounds of requests until the phase's time is up (and
// at least minRounds rounds), calling after(rounds done) between rounds.
func (cr *clientRun) loop(start time.Time, dur time.Duration, minRounds int, ck *checker, after func(int)) {
	var r request
	for n := 0; n < minRounds || time.Since(start) < dur; n++ {
		for j := 0; j < roundReqs; j++ {
			cr.g.next(&r)
			t := time.Now()
			got, err := cr.c.do(&r)
			done := time.Now()
			d := done.Sub(t)
			k := int64(r.nOps())
			cr.ops += k
			cr.reqs++
			if r.mutating() {
				cr.mutOps += k
			}
			cr.samples = append(cr.samples, sample{at: int64(done.Sub(start)), dur: int64(d), ops: int32(k), kind: r.kind})
			cr.t.request(ck, &r, got, err)
			if err != nil && cr.firstErr == nil {
				cr.firstErr = err
			}
		}
		if after != nil {
			after(n + 1)
		}
	}
	cr.end = time.Now()
}

// warmUp runs rounds untimed rounds on every client at once. Its ops are
// checked like all others.
func warmUp(runs []*clientRun, rounds int, ck *checker, t *tally) error {
	var wg sync.WaitGroup
	warm := make([]*clientRun, len(runs))
	for i, cr := range runs {
		warm[i] = &clientRun{c: cr.c, g: cr.g}
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm[i].loop(time.Now(), 0, rounds, ck, nil)
		}()
	}
	wg.Wait()
	for _, cr := range warm {
		t.add(cr.t)
		cr.c.reqBytes, cr.c.respBytes = 0, 0
		if cr.firstErr != nil {
			return fmt.Errorf("warm-up: %w", cr.firstErr)
		}
	}
	return nil
}

// timedPhase drives the leader from one closed-loop client per generator
// for cfg.seconds, in whole rounds.
func timedPhase(cfg runCfg, w *world, ld *leader) (*httpPhase, error) {
	ck := &checker{corrupt: cfg.corrupt}
	gens := w.generators(w.trees, 100)
	runs := make([]*clientRun, len(gens))
	for i, g := range gens {
		runs[i] = &clientRun{c: newClient(ld.base), g: g}
		defer runs[i].c.close()
	}
	ctl := newClient(ld.base)
	defer ctl.close()

	// On churn the PRAM counts cover a fixed number of rounds of the one
	// client, read between rounds: the same seed gives the same counts.
	// Elsewhere coalescing depends on timing, so they cover the phase.
	hp := &httpPhase{}
	minRounds := 1
	var after func(int)
	var counted pramCount
	var countErr error
	if w.name == "churn" {
		minRounds = w.sz.exactRounds
		after = func(n int) {
			if n == minRounds {
				counted, countErr = runs[0].c.fetchPRAM(1)
				hp.pramOps = runs[0].ops
			}
		}
	}
	// Warm up with a fixed number of rounds, so the leader's adaptive
	// state (batch caps, grains, anomaly baselines) settles before timing.
	if err := warmUp(runs, w.sz.warmRounds, ck, &hp.tally); err != nil {
		return nil, err
	}
	wal0, err := ld.walBytes()
	if err != nil {
		return nil, err
	}
	cpu0, err := ld.cpuSeconds()
	if err != nil {
		return nil, err
	}
	p0, err := ctl.fetchPRAM(len(w.trees))
	if err != nil {
		return nil, err
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	for _, cr := range runs {
		wg.Add(1)
		go func(after func(int)) {
			defer wg.Done()
			cr.loop(start, dur, minRounds, ck, after)
		}(after)
		after = nil // only the first client reads the counts
	}
	wg.Wait()
	cpu1, err := ld.cpuSeconds()
	if err != nil {
		return nil, err
	}
	hp.cpuS = cpu1 - cpu0
	if hp.peakKB, err = ld.statusKB("VmHWM"); err != nil {
		return nil, err
	}
	if hp.walBytes, err = ld.walBytes(); err != nil {
		return nil, err
	}
	hp.walBytes -= wal0
	if w.name != "churn" {
		counted, countErr = ctl.fetchPRAM(len(w.trees))
	}
	if countErr != nil {
		return nil, countErr
	}
	hp.pram = counted.sub(p0)

	var end time.Time
	for _, cr := range runs {
		hp.ops += cr.ops
		hp.mutOps += cr.mutOps
		hp.reqs += cr.reqs
		hp.tally.add(cr.t)
		hp.reqBytes += cr.c.reqBytes
		hp.respBytes += cr.c.respBytes
		hp.samples = append(hp.samples, cr.samples...)
		if cr.end.After(end) {
			end = cr.end
		}
		if cr.firstErr != nil {
			fmt.Fprintf(cfg.out, "%s: first failed request: %v\n", w.name, cr.firstErr)
		}
	}
	if w.name != "churn" {
		hp.pramOps = hp.ops
	}
	hp.elapsed = end.Sub(start).Seconds()
	return hp, nil
}

// maxWindows is how many equal time windows the timed phase is cut into
// for its windowed figures.
const maxWindows = 10

// windows cuts the phase into n equal time windows and passes each
// window's samples of the given class (all, writes or reads) to f; it
// returns the median of f's results. A median over windows keeps a burst
// of host noise in one window from moving the run's figure.
func (hp *httpPhase) windows(n int, keep func(sample) bool, f func(ss []sample, secs float64) float64) float64 {
	width := hp.elapsed / float64(n)
	parts := make([][]sample, n)
	for _, s := range hp.samples {
		if keep(s) {
			i := min(int(float64(s.at)/1e9/width), n-1)
			parts[i] = append(parts[i], s)
		}
	}
	vals := make([]float64, n)
	for i, p := range parts {
		vals[i] = f(p, width)
	}
	return median(vals)
}

// latency returns the q-quantile latency in ms of a class of requests:
// the median over as many equal windows (up to maxWindows) as leave ten
// samples beyond the quantile in each.
func (hp *httpPhase) latency(write bool, q float64) (float64, string) {
	keep := func(s sample) bool { return s.write() == write }
	n := 0
	for _, s := range hp.samples {
		if keep(s) {
			n++
		}
	}
	w := min(max(int(float64(n)*(1-q)/10), 1), maxWindows)
	v := hp.windows(w, keep, func(ss []sample, _ float64) float64 {
		d := make([]int64, len(ss))
		for i, s := range ss {
			d[i] = s.dur
		}
		return float64(pct(d, q)) / 1e6
	})
	return v, fmt.Sprintf("n=%d, median of %d windows", n, w)
}

// report prints the end-to-end metrics.
func (hp *httpPhase) report(rep *report, setupS, replayRate float64, setups []float64) {
	kop := float64(hp.ops) / 1000
	rate := hp.windows(maxWindows, func(sample) bool { return true }, func(ss []sample, secs float64) float64 {
		n := 0
		for _, s := range ss {
			n += int(s.ops)
		}
		return float64(n) / secs
	})
	rep.put("ops_per_s", rate, "1/s", fmt.Sprintf("median of %d windows; %d ops in %d requests over %.2fs",
		maxWindows, hp.ops, hp.reqs, hp.elapsed))
	// The gated tails are p90s. On a 2-vCPU host shared by the client
	// and the leader, p99s follow scheduler and GC stalls and moved by a
	// factor of two or more between runs of the same code; they are
	// printed for reading, not reported.
	for _, cl := range []struct {
		name  string
		write bool
	}{{"write", true}, {"read", false}} {
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p90", 0.9}} {
			v, note := hp.latency(cl.write, q.q)
			rep.put(cl.name+"_"+q.name+"_ms", v, "ms", note)
		}
		v, note := hp.latency(cl.write, 0.99)
		fmt.Fprintf(rep.out, "%-8s %-28s %14.4f ms     %s (printed only)\n", rep.prefix, cl.name+"_p99_ms", v, note)
	}
	rep.put("cpu_ms_per_kop", hp.cpuS*1000/kop, "ms", fmt.Sprintf("leader CPU %.2fs", hp.cpuS))
	rep.put("leader_peak_rss_mb", float64(hp.peakKB)/1024, "MB", "VmHWM")
	rep.put("wal_bytes_per_op", float64(hp.walBytes)/float64(hp.mutOps), "B",
		fmt.Sprintf("%d B over %d mutating ops", hp.walBytes, hp.mutOps))
	rep.put("replay_ops_per_s", replayRate, "1/s", "whole WAL")
	rep.put("pram_work_per_op", float64(hp.pram.work)/float64(hp.pramOps), "count",
		fmt.Sprintf("work %d over %d ops", hp.pram.work, hp.pramOps))
	rep.put("pram_steps_per_wave", float64(hp.pram.steps)/float64(hp.pram.waves), "count",
		fmt.Sprintf("steps %d over %d waves", hp.pram.steps, hp.pram.waves))
	rep.put("setup_s", setupS, "s", fmt.Sprintf("median of %v", roundAll(setups)))
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}

// verify checks the leader's final state: every tree's root against the
// mirror, and the replication property — a replica restored from the
// post-setup snapshot and fed the leader's WAL through dyntc.Follower
// must end with the leader's snapshot bytes. It returns the replay rate:
// mutating ops applied per second over the whole WAL, restores excluded.
// It also reports how many WAL
// records carry trace timestamps and how often the leader's anomaly
// recorder tripped, since both change the WAL's size.
func verify(w *world, ld *leader, out io.Writer) (tally, float64, error) {
	var t tally
	c := newClient(ld.base)
	defer c.close()
	leaderSnaps := make([][]byte, len(w.trees))
	waves := make([][]dyntc.Wave, len(w.trees))
	var records, stamped, ops int
	for i, m := range w.trees {
		var v struct{ Value int64 }
		v.Value = -1
		err := c.getJSON(fmt.Sprintf("/v1/trees/%d/value", treeID(i)), &v)
		t.checkOne(err, v.Value == m.root())
		status, err := c.call(http.MethodGet, fmt.Sprintf("/v1/trees/%d/snapshot", treeID(i)), nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET snapshot of tree %d: status %d", treeID(i), status)
		}
		if err != nil {
			return t, 0, err
		}
		leaderSnaps[i] = bytes.Clone(c.resp.Bytes())
		if waves[i], err = dyntc.ReadWaveLog(ld.walPath(i)); err != nil {
			return t, 0, err
		}
		for j := range waves[i] {
			records++
			ops += len(waves[i][j].Ops)
			if waves[i][j].SealedAt != 0 {
				stamped++
			}
		}
	}
	trips := "?"
	if status, err := c.call(http.MethodGet, "/metrics", nil); err == nil && status == http.StatusOK {
		for _, line := range strings.Split(c.resp.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "dyntc_anomaly_trips_total "); ok {
				trips = v
			}
		}
	}
	fmt.Fprintf(out, "%s: WAL holds %d records, %d with trace timestamps; anomaly recorder trips: %s\n",
		w.name, records, stamped, trips)

	fs := make([]*dyntc.Follower, len(w.trees))
	errs := make([]error, len(w.trees))
	for i := range w.trees {
		fs[i], errs[i] = dyntc.NewFollower(w.snaps[i])
	}
	runtime.GC() // start the timed replay from a collected heap
	t0 := time.Now()
	for i, f := range fs {
		if errs[i] == nil {
			errs[i] = f.ApplyAll(waves[i])
		}
	}
	rate := float64(ops) / time.Since(t0).Seconds()
	for i, f := range fs {
		err := errs[i]
		var snap []byte
		if err == nil {
			snap, err = f.Snapshot()
		}
		t.checkOne(err, bytes.Equal(snap, leaderSnaps[i]))
	}
	return t, rate, nil
}
