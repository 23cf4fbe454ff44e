package main

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"videocdn/internal/cost"
	"videocdn/internal/edge"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
)

// setups is how many times each live run sets its workload up;
// setup_s is the median.
const setups = 3

// offlineTolerance bounds |live efficiency - offline efficiency| on the
// same request sequence. The live edge serves two connections at once,
// so neighbouring requests can reach Cafe in swapped order and a
// request can see a trace time a second later than its own (the clock
// is the highest time seen). On these workloads that moves Eq. 2 by a
// few thousandths; a live-path bug such as degraded redirects under
// load moves it by far more.
const offlineTolerance = 0.01

// edgeEnv is one set-up edge: origin and edge processes plus the load
// generator pointed at the edge.
type edgeEnv struct {
	origin, edge *child
	lg           *loadGen
	dir          string
}

func (e *edgeEnv) teardown() (rssMB float64, err error) {
	e.lg.close()
	_, rssMB, err = e.edge.stop()
	if _, _, err2 := e.origin.stop(); err == nil {
		err = err2
	}
	os.RemoveAll(e.dir)
	return rssMB, err
}

// setupEdge generates the workload, starts origin and edge, and warms
// the edge with the workload's warm requests.
func setupEdge(spec *liveSpec, o options, n int, i int, traced bool, rep *report) (*liveLoad, *edgeEnv, float64, error) {
	t := time.Now()
	l, err := spec.gen(o.seed, n, o.smoke)
	if err != nil {
		return nil, nil, 0, err
	}
	genSecs := time.Since(t).Seconds()
	dir := filepath.Join(o.work, fmt.Sprintf("setup%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	catPath := filepath.Join(dir, "catalog.gob")
	f, err := os.Create(catPath)
	if err != nil {
		return nil, nil, 0, err
	}
	err = gob.NewEncoder(f).Encode(l.catalog)
	if err2 := f.Close(); err == nil {
		err = err2
	}
	if err != nil {
		return nil, nil, 0, err
	}
	k := strconv.FormatInt(spec.k, 10)
	env := &edgeEnv{dir: dir}
	if env.origin, err = startChild("origin", "-catalog", catPath, "-chunk", k); err != nil {
		return nil, nil, 0, err
	}
	env.edge, err = startChild("edge", "-chunk", k, "-disk-chunks", strconv.Itoa(l.disk),
		"-origin", env.origin.first, "-dir", filepath.Join(dir, "store"), "-trace="+strconv.FormatBool(traced))
	if err != nil {
		env.origin.kill()
		return nil, nil, 0, err
	}
	// Warm over one connection, in order: the measured window then
	// starts from the same cache state on every run and every commit,
	// the state the offline replay reaches.
	warmer := newLoadGen(env.edge.first, 1)
	warm := bind(o.seed, make([]time.Duration, len(l.warm)), l.warm, 1<<40, 1<<62)
	for i, out := range warmer.run(warm, false, nil) {
		if out.bad != "" {
			rep.fail("warm request %d: %s", i, out.bad)
		}
		if out.cut != "" {
			rep.failOp("warm request %d: %s", i, out.cut)
		}
	}
	warmer.close()
	env.lg = newLoadGen(env.edge.first, liveConns)
	if traced {
		// Keep the warming's spans: on hot-serve they are the only fills.
		err = env.lg.control("/bench/trace?reset=1&dump=" + url.QueryEscape(filepath.Join(o.work, "warm.spans")))
	}
	return l, env, genSecs, err
}

// segment is one stretch of a run at a fixed offered rate.
type segment struct {
	rate float64
	dur  time.Duration
	ref  bool
}

// rounds is how many pieces a run's reference-rate time is cut into,
// and how many times the traced run climbs the ladder. Every rate is
// measured once per round, so its segments are spread over the run,
// and per-rate figures are medians over its segments: a few slow
// seconds on a shared machine move one segment, not the result.
const rounds = 8

// refPlan is the untraced run: the reference rate for the run's
// seconds, in rounds segments.
func (spec *liveSpec) refPlan(total time.Duration) []segment {
	out := make([]segment, rounds)
	for i := range out {
		out[i] = segment{spec.rates[spec.ref], total / rounds, true}
	}
	return out
}

// ladder is the rate climb of the traced run, rounds times over: each
// round is the reference rate (refShare of the time in all) and then
// the other rates in ascending order, each lasting long enough for the
// same expected number of requests.
func (spec *liveSpec) ladder(total time.Duration) []segment {
	ref := spec.rates[spec.ref]
	var others []float64
	inv := 0.0
	for i, r := range spec.rates {
		if i != spec.ref {
			others = append(others, r)
			inv += 1 / r
		}
	}
	refDur := time.Duration(float64(total) * spec.refShare / rounds)
	perSegment := total.Seconds() * (1 - spec.refShare) / rounds / inv // requests in each other segment
	var out []segment
	for range rounds {
		out = append(out, segment{ref, refDur, true})
		for _, r := range others {
			out = append(out, segment{r, time.Duration(perSegment / r * float64(time.Second)), false})
		}
	}
	return out
}

// runLive runs an open-loop edge workload; every set-up is timed for
// setup_s. Untraced (--trace 0): the last set-up serves the reference
// rate for the run's seconds. Traced (--trace 1): the last but one
// set-up serves one reference-rate segment (the untraced twin) and then
// climbs the ladder, untraced; the last wraps every layer, serves the
// twin's requests again, then the null handler at the same rate.
func runLive(spec *liveSpec, o options, rep *report) error {
	total := time.Duration(o.seconds) * time.Second
	segs := spec.refPlan(total)
	if o.trace {
		segs = append([]segment{{spec.rates[spec.ref], total / 3, true}}, spec.ladder(total)...)
	}
	rates := make([]float64, len(segs))
	durs := make([]time.Duration, len(segs))
	for i, s := range segs {
		rates[i], durs[i] = s.rate, s.dur
	}
	due := arrivalTimes(o.seed, rates, durs)
	n := 0
	for _, d := range due {
		n += len(d)
	}
	var setupSecs, genSecs []float64
	var l *liveLoad
	var env *edgeEnv
	var climb []*segResult // traced run: the twin and the ladder, untraced
	for i := 0; i < setups; i++ {
		var err error
		var g float64
		t := time.Now()
		l, env, g, err = setupEdge(spec, o, n, i, o.trace && i == setups-1, rep)
		if err != nil {
			return err
		}
		setupSecs = append(setupSecs, time.Since(t).Seconds())
		genSecs = append(genSecs, g)
		fmt.Fprintf(os.Stderr, "set-up %d: %.3f s, generation %.3f s\n", i+1, setupSecs[i], g)
		if len(l.stream) < n {
			env.teardown()
			return fmt.Errorf("workload produced %d requests, the schedule needs %d", len(l.stream), n)
		}
		if o.trace && i == setups-2 {
			if climb, err = runSegments(env.lg, o, spec, segs, due, l, rep, nil); err != nil {
				env.teardown()
				return err
			}
		}
		if i < setups-1 {
			if _, err := env.teardown(); err != nil {
				return fmt.Errorf("teardown: %w", err)
			}
		}
	}
	if o.trace {
		return tracedLive(spec, o, env, segs, due, l, climb, median(genSecs), rep)
	}
	off := newOffline(l, spec.k, due)
	rungs, err := runSegments(env.lg, o, spec, segs, due, l, rep, off)
	if err != nil {
		env.teardown()
		return err
	}
	if err := checkStatsEndpoint(env.lg); err != "" {
		rep.fail("%s", err)
	}
	rss, err := env.teardown()
	if err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	first, last := rungs[0].before.Stats, rungs[len(rungs)-1].after.Stats
	eff := efficiencyOf(last.RequestedBytes-first.RequestedBytes, last.FilledBytes-first.FilledBytes,
		last.RedirectedBytes-first.RedirectedBytes)
	if off.err != nil {
		return off.err
	}
	if math.Abs(eff-off.eff) > offlineTolerance {
		rep.failOp("live efficiency %.5f differs from offline replay of the same requests %.5f by more than %v", eff, off.eff, offlineTolerance)
	}
	var cpu []float64
	for _, r := range rungs {
		cpu = append(cpu, float64(r.after.Usage.CPUNs-r.before.Usage.CPUNs)/1e3/float64(len(r.reqs)))
	}
	rep.set("setup_s", "s", median(setupSecs))
	rep.set("cpu_us_per_req", "us", median(cpu))
	rep.set("rss_peak_MB", "MB", rss)
	rep.set("efficiency", "ratio", eff)
	sort.Float64s(off.passSecs)
	rep.set("replay_rps", "1/s", float64(len(off.reqs))/quantile(off.passSecs, 0.1))
	return nil
}

// tracedLive finishes the traced run on the traced edge env: the twin's
// requests again, the span dump, the null handler, and the per-layer
// metrics, including the latency and capacity figures of the untraced
// climb.
func tracedLive(spec *liveSpec, o options, env *edgeEnv, segs []segment, due [][]time.Duration, l *liveLoad, climb []*segResult, genSecs float64, rep *report) error {
	traced, err := runSegments(env.lg, o, spec, segs[:1], due[:1], l, rep, nil)
	if err != nil {
		env.teardown()
		return err
	}
	spansPath := filepath.Join(o.work, "edge.spans")
	if err := env.lg.control("/bench/trace?dump=" + url.QueryEscape(spansPath)); err != nil {
		env.teardown()
		return err
	}
	null, err := env.lg.measureSegment(segs[0].rate, traced[0].reqs, true, nil)
	if err != nil {
		env.teardown()
		return err
	}
	addViolations(rep, null)
	if err := checkStatsEndpoint(env.lg); err != "" {
		rep.fail("%s", err)
	}
	if _, err := env.teardown(); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	spans, err := loadSpans(spansPath)
	if err != nil {
		return err
	}
	warm, err := loadSpans(filepath.Join(o.work, "warm.spans"))
	if err != nil {
		return err
	}
	L := liveLayers(rep, spans, climb[0], traced[0], null, genSecs)
	if L["origin.fetches_per_req"] == 0 {
		// The measured window filled nothing (hot-serve): report the
		// fill path from the set-up's warming, which filled every chunk
		// over one connection.
		fillLayers(L, warm, float64(len(l.warm)))
	}
	ladder := climb[1:]
	var lat []float64
	for _, r := range ladder {
		if r.rate == spec.rates[spec.ref] {
			lat = append(lat, r.lat...)
		}
	}
	sort.Float64s(lat)
	L["e2e.max_rate_rps"] = maxRate(ladder, spec.p99LimitMs)
	L["e2e.latency_p50_ms"] = quantile(lat, 0.5)
	L["e2e.latency_p90_ms"] = quantile(lat, 0.9)
	L["e2e.latency_p99_ms"] = quantile(lat, 0.99)
	setLayers(rep, L)
	return nil
}

// runSegments measures each segment in turn; the requests are the
// workload's stream, consumed in order. Between segments, while the
// edge is idle, off (if set) gets a slice of time for offline replay
// passes, so the replay rate is sampled across the whole run.
func runSegments(lg *loadGen, o options, spec *liveSpec, segs []segment, due [][]time.Duration, l *liveLoad, rep *report, off *offline) ([]*segResult, error) {
	var out []*segResult
	next := 0
	for i, s := range segs {
		reqs := bind(o.seed, due[i], l.stream[next:], uint64(next+1), sampleEvery(spec))
		next += len(reqs)
		expected := expectedBodies(reqs, spec.k, 32<<20)
		r, err := lg.measureSegment(s.rate, reqs, false, expected)
		if err != nil {
			return nil, err
		}
		addViolations(rep, r)
		fmt.Fprintf(os.Stderr, "%4.0f rps: %5d requests, p50 %.2f ms, p99 %.2f ms, edge cpu %.0f us/req, tail p90 %.2f ms, degraded %d, redirects %d\n",
			s.rate, len(reqs), r.p(0.5), r.p(0.99), float64(r.after.Usage.CPUNs-r.before.Usage.CPUNs)/1e3/float64(max(1, len(reqs))),
			r.tailP90(), r.after.Stats.DegradedRedirects-r.before.Stats.DegradedRedirects, r.redirects)
		out = append(out, r)
		if off != nil {
			off.replay(offlineBudget / time.Duration(len(segs)))
		}
	}
	return out, nil
}

func sampleEvery(spec *liveSpec) uint64 {
	if spec.k >= 1<<20 {
		return 400 // a 2 MB body takes milliseconds to generate
	}
	return 20
}

func addViolations(rep *report, r *segResult) {
	rep.Attempted += len(r.reqs)
	for _, v := range r.violations {
		rep.fail("%.0f rps segment: %s", r.rate, v)
	}
	for _, v := range r.cut {
		rep.failOp("%.0f rps segment: %s", r.rate, v)
	}
}

// checkStatsEndpoint reads the real /stats body and checks Eq. 2 on it.
func checkStatsEndpoint(lg *loadGen) string {
	resp, err := lg.client.Get(lg.base + "/stats")
	if err != nil {
		return "GET /stats: " + err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "/stats: " + resp.Status
	}
	var st edge.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "decode /stats: " + err.Error()
	}
	return checkEq2(st)
}

// maxRate is the highest offered rate that meets the p99 limit with no
// failures and no growing backlog, refined by interpolating log p99
// between it and the next rate up, so that the figure moves smoothly
// rather than by whole rungs. Per rate, the p99 and the backlog figure
// are medians over its segments, and any failed request fails the rate.
func maxRate(rungs []*segResult, limitMs float64) float64 {
	byRate := map[float64][]*segResult{}
	var rates []float64
	for _, r := range rungs {
		if byRate[r.rate] == nil {
			rates = append(rates, r.rate)
		}
		byRate[r.rate] = append(byRate[r.rate], r)
	}
	sort.Float64s(rates)
	p99 := func(rate float64) float64 {
		var ps []float64
		for _, r := range byRate[rate] {
			ps = append(ps, r.p(0.99))
		}
		return median(ps)
	}
	meets := func(rate float64) bool {
		var tails []float64
		for _, r := range byRate[rate] {
			if r.failed > 0 {
				return false
			}
			tails = append(tails, r.tailP90())
		}
		return p99(rate) <= limitMs && median(tails) <= limitMs
	}
	best := -1
	for i, rate := range rates {
		if meets(rate) {
			best = i
		}
	}
	switch {
	case best < 0:
		return rates[0] * limitMs / math.Max(p99(rates[0]), limitMs)
	case best == len(rates)-1:
		return rates[best]
	}
	a, b := rates[best], rates[best+1]
	pa, pb := p99(a), p99(b)
	if pb <= limitMs {
		return a // b failed on errors or backlog, not on latency
	}
	f := (math.Log(limitMs) - math.Log(pa)) / (math.Log(pb) - math.Log(pa))
	return a + f*(b-a)
}

// tailP90 is the 90th-percentile latency of the requests due in the
// segment's last tenth: above the limit, the backlog was growing.
func (r *segResult) tailP90() float64 {
	from := len(r.outs) * 9 / 10
	var lat []float64
	for j, o := range r.outs[from:] {
		lat = append(lat, float64(o.latency(r.reqs[from+j].due))/1e6)
	}
	sort.Float64s(lat)
	return quantile(lat, 0.9)
}

// offline replays the warm requests and every request of the run, in
// the order sent, through sim.Replay with the edge's policy config. Its
// Eq. 2 over the measured window (trace time >= t0) is the live-vs-
// offline check's reference; its passes give replay_rps.
type offline struct {
	reqs  []trace.Request
	k     int64
	disk  int
	t0    int64
	eff   float64
	first *cost.Counters
	// passSecs are the pass times; replay_rps is taken from the fastest
	// tenth. A pass lasts milliseconds (hot-serve) to a tenth of a
	// second (churn), so on a shared host many are stretched by the
	// time the hypervisor takes the CPU away, by more or less from run
	// to run; the fastest are the ones it left alone.
	passSecs []float64
	err      error
	quota    time.Duration // replay time granted so far
	spent    time.Duration
}

// offlineBudget is the replay time a run spends on replay_rps, spread
// evenly over the gaps between segments.
const offlineBudget = 2 * time.Second

func newOffline(l *liveLoad, k int64, due [][]time.Duration) *offline {
	n := 0
	for _, d := range due {
		n += len(d)
	}
	reqs := append(append([]trace.Request(nil), l.warm...), l.stream[:n]...)
	return &offline{reqs: reqs, k: k, disk: l.disk, t0: l.t0}
}

// replay grants the replay share more time and replays while the
// time spent is below the time granted (and at least once in all).
func (f *offline) replay(share time.Duration) {
	model := cost.MustModel(alphaF2R)
	f.quota += share
	// Each pass runs with the collector off, after a collection. How
	// often this process would collect inside a pass depends on how much
	// of its heap the load generator holds at that moment, which varies
	// from run to run; a pass makes only a few MB of garbage.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for f.err == nil && (f.spent < f.quota || len(f.passSecs) == 0) {
		t0 := time.Now()
		runtime.GC()
		c, err := newCafe(f.k, f.disk)
		if err != nil {
			f.err = err
			return
		}
		t := time.Now()
		res, err := sim.Replay(c, trace.Slice(f.reqs), model, sim.Options{BucketSeconds: 1})
		if err != nil {
			f.err = err
			return
		}
		f.passSecs = append(f.passSecs, time.Since(t).Seconds())
		f.spent += time.Since(t0)
		window := res.Series.From(f.t0)
		switch {
		case f.first == nil:
			f.first = &window
			f.eff = window.Efficiency(model)
		case window != *f.first:
			f.err = fmt.Errorf("offline replay is not deterministic: %+v then %+v", *f.first, window)
		}
	}
}
