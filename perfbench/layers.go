package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"videocdn/internal/workload"
)

// perLayer lists every per-layer metric with its unit, in report order.
// A metric that does not apply to a workload reads 0.
var perLayer = []struct{ name, unit string }{
	{"policy.decide_us_p50", "us"}, {"policy.decide_us_p99", "us"}, {"policy.decide_share", "ratio"},
	{"policy.filled_chunks_per_req", "count"}, {"policy.evicted_chunks_per_req", "count"}, {"policy.redirect_share", "ratio"},
	{"edge.handler_us_p50", "us"}, {"edge.handler_us_p99", "us"},
	{"edge.pre_decision_us_p50", "us"}, {"edge.pre_decision_us_p99", "us"}, {"edge.self_us_p50", "us"},
	{"edge.serve_sendfile_share", "ratio"}, {"edge.serve_borrow_share", "ratio"}, {"edge.serve_copy_share", "ratio"},
	{"edge.fill_buf_peak_KB", "KB"}, {"edge.degraded_redirects", "count"}, {"edge.self_heals", "count"},
	{"store.get_section_us_p50", "us"}, {"store.get_us_p50", "us"}, {"store.has_calls_per_req", "count"},
	{"store.put_stream_us_p50", "us"}, {"store.put_stream_us_p99", "us"}, {"store.delete_us_p50", "us"}, {"store.errors", "count"},
	{"origin.fetch_ms_p50", "ms"}, {"origin.fetch_ms_p99", "ms"}, {"origin.fetches_per_req", "count"},
	{"origin.useful_fetch_ratio", "ratio"}, {"origin.retries", "count"},
	{"http.ttfb_p50_ms", "ms"}, {"http.body_ms_p50", "ms"}, {"http.body_ms_p99", "ms"},
	{"http.outside_handler_us_p50", "us"}, {"http.null_p50_us", "us"},
	{"trace.read_ns_per_req", "ns"}, {"sim.self_ns_per_req", "ns"},
	{"workload.generate_s", "s"},
	{"runtime.allocs_per_req", "count"}, {"runtime.gc_cpu_share", "ratio"}, {"runtime.heap_peak_MB", "MB"},
	{"loadgen.lateness_p99_ms", "ms"}, {"loadgen.conn_wait_p99_ms", "ms"},
	{"bench.tracing_overhead", "ratio"}, {"bench.unlinked_spans", "count"},
	{"e2e.max_rate_rps", "1/s"}, {"e2e.latency_p50_ms", "ms"}, {"e2e.latency_p90_ms", "ms"}, {"e2e.latency_p99_ms", "ms"},
}

func setLayers(rep *report, vals map[string]float64) {
	for _, m := range perLayer {
		rep.set(m.name, m.unit, vals[m.name])
	}
}

// liveLayers derives the per-layer metrics of a live workload from the
// traced segment's spans and client outcomes, the untraced twin segment's
// edge counters, and the null-handler segment.
func liveLayers(rep *report, spans []span, untraced, traced, null *segResult, genSecs float64) map[string]float64 {
	L := map[string]float64{"workload.generate_s": genSecs}
	n := float64(len(traced.reqs))
	byKind := make([][]float64, numKinds) // µs, sorted below
	children := map[int32][]span{}
	var decideUs, handlerUs float64
	var filled, evicted, redirects, storeErrs, unlinked float64
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e3
		byKind[s.Kind] = append(byKind[s.Kind], d)
		if s.Kind != kHandler && s.Kind != kTraceRead {
			if s.Unlinked || s.Parent < 0 {
				unlinked++
			} else {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		switch s.Kind {
		case kHandler:
			handlerUs += d
		case kDecide:
			decideUs += d
			filled += float64(s.A)
			evicted += float64(s.B)
			if s.Err {
				redirects++
			}
		case kStoreGet, kStoreBorrow, kStoreSection, kStorePut, kStoreDelete:
			if s.Err {
				storeErrs++
			}
		}
	}
	for _, xs := range byKind {
		sort.Float64s(xs)
	}
	q := func(k spanKind, p float64) float64 { return quantile(byKind[k], p) }

	// Per handler span: time before the decision, and self time (the
	// handler's interval minus what its linked children cover).
	var pre, self []float64
	handlerOf := map[uint64]float64{}
	for i, s := range spans {
		if s.Kind != kHandler {
			continue
		}
		handlerOf[s.Req] = float64(s.End-s.Start) / 1e3
		kids := children[int32(i)]
		for _, c := range kids {
			if c.Kind == kDecide {
				pre = append(pre, float64(c.Start-s.Start)/1e3)
			}
		}
		self = append(self, float64(s.End-s.Start-covered(s, kids))/1e3)
	}
	sort.Float64s(pre)
	sort.Float64s(self)

	L["policy.decide_us_p50"] = q(kDecide, 0.5)
	L["policy.decide_us_p99"] = q(kDecide, 0.99)
	L["policy.decide_share"] = decideUs / handlerUs
	L["policy.filled_chunks_per_req"] = filled / n
	L["policy.evicted_chunks_per_req"] = evicted / n
	L["policy.redirect_share"] = redirects / n
	L["edge.handler_us_p50"] = q(kHandler, 0.5)
	L["edge.handler_us_p99"] = q(kHandler, 0.99)
	L["edge.pre_decision_us_p50"] = quantile(pre, 0.5)
	L["edge.pre_decision_us_p99"] = quantile(pre, 0.99)
	L["edge.self_us_p50"] = quantile(self, 0.5)

	// Serve paths, fills and edge counters come from the untraced twin;
	// the traced segment must agree with it.
	ub, ua := untraced.before, untraced.after
	sf, bo, co := pathShares(ub, ua)
	L["edge.serve_sendfile_share"], L["edge.serve_borrow_share"], L["edge.serve_copy_share"] = sf, bo, co
	L["edge.fill_buf_peak_KB"] = float64(ua.Path.FillBufPeakBytes) / 1024
	L["edge.degraded_redirects"] = float64(ua.Stats.DegradedRedirects - ub.Stats.DegradedRedirects)
	L["edge.self_heals"] = float64(ua.Stats.SelfHeals - ub.Stats.SelfHeals)
	tsf, tbo, tco := pathShares(traced.before, traced.after)
	if math.Abs(sf-tsf) > 0.02 || math.Abs(bo-tbo) > 0.02 || math.Abs(co-tco) > 0.02 {
		rep.fail("traced serve-path shares %.3f/%.3f/%.3f differ from untraced %.3f/%.3f/%.3f", tsf, tbo, tco, sf, bo, co)
	}
	uf := float64(ua.Path.StreamFills - ub.Path.StreamFills + ua.Path.BufferedFills - ub.Path.BufferedFills)
	tf := float64(traced.after.Path.StreamFills - traced.before.Path.StreamFills + traced.after.Path.BufferedFills - traced.before.Path.BufferedFills)
	if math.Abs(uf-tf) > math.Max(8, 0.03*uf) {
		rep.fail("traced run made %.0f fills, untraced %.0f", tf, uf)
	}
	if (ua.Path.BufferedFills - ub.Path.BufferedFills) != (traced.after.Path.BufferedFills - traced.before.Path.BufferedFills) {
		rep.fail("traced and untraced runs took different fill paths")
	}

	L["store.get_section_us_p50"] = q(kStoreSection, 0.5)
	L["store.get_us_p50"] = q(kStoreGet, 0.5)
	L["store.has_calls_per_req"] = float64(len(byKind[kStoreHas])) / n
	L["store.errors"] = storeErrs
	fillLayers(L, spans, n)
	L["origin.retries"] = float64(traced.after.Stats.OriginRetries - traced.before.Stats.OriginRetries)

	var ttfb, body, outside []float64
	for i, o := range traced.outs {
		ttfb = append(ttfb, float64(o.first-o.picked)/1e6)
		body = append(body, float64(o.done-o.first)/1e6)
		if h, ok := handlerOf[traced.reqs[i].id]; ok {
			outside = append(outside, float64(o.done-o.picked)/1e3-h)
		}
	}
	sort.Float64s(ttfb)
	sort.Float64s(body)
	sort.Float64s(outside)
	L["http.ttfb_p50_ms"] = quantile(ttfb, 0.5)
	L["http.body_ms_p50"] = quantile(body, 0.5)
	L["http.body_ms_p99"] = quantile(body, 0.99)
	L["http.outside_handler_us_p50"] = quantile(outside, 0.5)
	L["http.null_p50_us"] = null.p(0.5) * 1e3

	un := float64(len(untraced.reqs))
	runtimeLayers(L, ub.Usage, ua.Usage, un, ua.HeapPeak)
	var late, wait []float64
	for i, o := range untraced.outs {
		late = append(late, float64(o.enqueued-untraced.reqs[i].due)/1e6)
		wait = append(wait, float64(o.picked-o.enqueued)/1e6)
	}
	sort.Float64s(late)
	sort.Float64s(wait)
	L["loadgen.lateness_p99_ms"] = quantile(late, 0.99)
	L["loadgen.conn_wait_p99_ms"] = quantile(wait, 0.99)
	ucpu := float64(ua.Usage.CPUNs-ub.Usage.CPUNs) / un
	tcpu := float64(traced.after.Usage.CPUNs-traced.before.Usage.CPUNs) / n
	L["bench.tracing_overhead"] = tcpu/ucpu - 1
	L["bench.unlinked_spans"] = unlinked
	if unlinked > 0 {
		rep.fail("%.0f policy, store or origin spans could not be linked to a request", unlinked)
	}
	return L
}

// fillLayers sets the fill-path metrics (origin fetches, store writes
// and deletes) from spans that served n requests.
func fillLayers(L map[string]float64, spans []span, n float64) {
	var fetch, put, del []float64
	var filled float64
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e3
		switch s.Kind {
		case kOriginChunk:
			fetch = append(fetch, d)
		case kStorePut:
			put = append(put, d)
		case kStoreDelete:
			del = append(del, d)
		case kDecide:
			filled += float64(s.A)
		}
	}
	for _, xs := range [][]float64{fetch, put, del} {
		sort.Float64s(xs)
	}
	L["store.put_stream_us_p50"] = quantile(put, 0.5)
	L["store.put_stream_us_p99"] = quantile(put, 0.99)
	L["store.delete_us_p50"] = quantile(del, 0.5)
	L["origin.fetch_ms_p50"] = quantile(fetch, 0.5) / 1e3
	L["origin.fetch_ms_p99"] = quantile(fetch, 0.99) / 1e3
	L["origin.fetches_per_req"] = float64(len(fetch)) / n
	L["origin.useful_fetch_ratio"] = 0
	if len(fetch) > 0 {
		L["origin.useful_fetch_ratio"] = filled / float64(len(fetch))
	}
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = math.MinInt64
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

func pathShares(b, a edgeSnap) (sendfile, borrow, cp float64) {
	s := float64(a.Path.SendfileChunks - b.Path.SendfileChunks)
	bo := float64(a.Path.BorrowChunks - b.Path.BorrowChunks)
	c := float64(a.Path.CopyChunks - b.Path.CopyChunks)
	t := s + bo + c
	if t == 0 {
		return 0, 0, 0
	}
	return s / t, bo / t, c / t
}

// ---------- replay workload ----------

const (
	replayDays       = 30
	replayDiskChunks = 1536 // 3 GB of 2 MB chunks
	// replaySetups is how many times a replay run sets up; setup_s is
	// the median. One set-up takes about 0.15 s, so a few slow file
	// writes or process starts would move the median of only three.
	replaySetups = 11
)

// replayProfile is the europe profile at a third of its request
// volume (a month is about 270k requests), with twice its catalog and
// four times its uploads, and a video-size spread of 0.5 instead of 1.
// More uploads mean more of the rare new hits per month, and narrower
// sizes mean the few hottest videos' sizes weigh less, so Eq. 2 and the
// cost per request vary less from seed to seed.
func replayProfile(seed int64, smoke bool) workload.Profile {
	p, _ := workload.ProfileByName("europe")
	p.Seed = seed
	p.RequestsPerDay = 9000
	p.CatalogSize = 10000
	p.NewVideosPerDay = 280
	p.SigmaVideo = 0.5
	if smoke {
		p.RequestsPerDay = 500
		p.CatalogSize = 100
	}
	return p
}

// runReplayWorkload: each set-up generates the month trace into a
// columnar directory and starts the replay process on it; the last one
// replays for the run's seconds.
func runReplayWorkload(o options, rep *report) error {
	dir := filepath.Join(o.work, "trace")
	disk := replayDiskChunks
	if o.smoke {
		disk = 64
	}
	args := func(dry bool) []string {
		return []string{"-dir", dir, "-chunk", strconv.Itoa(2 << 20), "-disk-chunks", strconv.Itoa(disk),
			"-seconds", strconv.Itoa(o.seconds), "-trace=" + strconv.FormatBool(o.trace),
			"-dry=" + strconv.FormatBool(dry), "-spans", filepath.Join(o.work, "replay.spans")}
	}
	var setupSecs, genSecs []float64
	var proc *child
	for i := 0; i < replaySetups; i++ {
		t := time.Now()
		if err := genReplayTrace(o.seed, dir, o.smoke); err != nil {
			return err
		}
		genSecs = append(genSecs, time.Since(t).Seconds())
		c, err := startChild("replay", args(i < replaySetups-1)...)
		if err != nil {
			return err
		}
		setupSecs = append(setupSecs, time.Since(t).Seconds())
		if i < replaySetups-1 {
			if _, _, err := c.wait(time.Minute); err != nil {
				return fmt.Errorf("replay set-up: %w", err)
			}
		} else {
			proc = c
		}
	}
	// The replay measures for the run's seconds plus, traced, one
	// traced pass; twice that and a minute is far beyond a healthy run.
	outText, rss, err := proc.wait(2*time.Duration(o.seconds)*time.Second + time.Minute)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	var out replayOut
	if err := json.Unmarshal([]byte(outText), &out); err != nil {
		return fmt.Errorf("replay output: %w", err)
	}
	rep.Attempted = int(out.Requests) * out.Passes
	for _, v := range out.Violations {
		rep.fail("%s", v)
	}
	if out.Result.Requests == 0 || out.Result.Served+out.Result.Redirected != out.Result.Requests {
		rep.fail("replay served %d + redirected %d of %d requests", out.Result.Served, out.Result.Redirected, out.Result.Requests)
	}
	if o.trace {
		out.Layers["workload.generate_s"] = median(genSecs)
		setLayers(rep, out.Layers)
		return nil
	}
	var rates []float64
	for _, s := range out.PassSecs {
		rates = append(rates, float64(out.Requests)/s)
	}
	rps := median(rates)
	total := float64(out.Requests) * float64(out.Passes)
	rep.set("setup_s", "s", median(setupSecs))
	rep.set("cpu_us_per_req", "us", float64(out.CPUNs)/1e3/total)
	rep.set("rss_peak_MB", "MB", rss)
	rep.set("efficiency", "ratio", out.Efficiency)
	rep.set("replay_rps", "1/s", rps)
	return nil
}
