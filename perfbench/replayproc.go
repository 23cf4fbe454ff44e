package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/policy"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
)

// replayOut is the replay process's report to the orchestrator.
type replayOut struct {
	Passes     int
	Requests   int64     // per pass
	PassSecs   []float64 // wall time of each untraced pass
	CPUNs      int64     // process CPU across the untraced passes
	Efficiency float64
	Result     sim.Result // first pass, Series dropped
	Layers     map[string]float64
	Violations []string
}

func newCafe(k int64, disk int) (core.Cache, error) {
	return policy.NewWithEnv("cafe", core.Config{ChunkSize: k, DiskChunks: disk}, policy.Env{Alpha: alphaF2R}, nil)
}

// runReplay is the `replay` role: sim.Replay of a columnar trace
// directory through Cafe on one goroutine, pass after pass, each on a
// fresh cache, until the time is up. Traced, the last pass is traced.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	dir := fs.String("dir", "", "columnar trace directory")
	k := fs.Int64("chunk", 0, "chunk size")
	disk := fs.Int("disk-chunks", 0, "disk size in chunks")
	secs := fs.Float64("seconds", 10, "measure for this long")
	traced := fs.Bool("trace", false, "end with a traced pass and report per-layer metrics")
	dry := fs.Bool("dry", false, "open the trace, announce readiness and exit")
	spans := fs.String("spans", "", "write the traced pass's spans here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := trace.OpenDir(*dir, nil)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	if *dry {
		return nil
	}
	model := cost.MustModel(alphaF2R)
	out := replayOut{Layers: map[string]float64{}}
	// Traced, the first pass also times the gaps between reads, into a
	// buffer sized before the measurement starts.
	var gaps []float64
	if *traced {
		gaps = make([]float64, 0, src.Len())
	}
	heap := startHeapSampler()
	u0 := readUsage()
	// Traced, the untraced passes leave a fifth of the time for the
	// traced pass.
	limit := *secs
	if *traced {
		limit *= 0.8
	}
	var first *sim.Result
	start := time.Now()
	for out.Passes == 0 || time.Since(start).Seconds() < limit {
		c, err := newCafe(*k, *disk)
		if err != nil {
			return err
		}
		t := time.Now()
		var source trace.Source = src
		if *traced && out.Passes == 0 {
			source = tracedSource{Dir: src, gaps: &gaps}
		}
		res, err := sim.Replay(c, source, model, sim.Options{})
		if err != nil {
			return err
		}
		out.PassSecs = append(out.PassSecs, time.Since(t).Seconds())
		out.Passes++
		res.Series = nil
		if first == nil {
			first = res
		} else if *res != *first {
			out.Violations = append(out.Violations, fmt.Sprintf("pass %d result %+v differs from pass 1 %+v", out.Passes, *res, *first))
		}
	}
	u1 := readUsage()
	heap.close()
	out.CPUNs = u1.CPUNs - u0.CPUNs
	out.Requests = int64(first.Requests)
	out.Result = *first
	out.Efficiency = first.Efficiency()
	if want := first.Steady.Efficiency(model); out.Efficiency != want {
		out.Violations = append(out.Violations, fmt.Sprintf("efficiency %v != Eq. 2 of steady counters %v", out.Efficiency, want))
	}
	if *traced {
		L := out.Layers
		passSecs := median(out.PassSecs)
		runtimeLayers(L, u0, u1, float64(first.Requests*out.Passes), heap.peak.Load())
		sort.Float64s(gaps)
		L["e2e.max_rate_rps"] = float64(first.Requests) / passSecs
		L["e2e.latency_p50_ms"] = quantile(gaps, 0.5)
		L["e2e.latency_p90_ms"] = quantile(gaps, 0.9)
		L["e2e.latency_p99_ms"] = quantile(gaps, 0.99)
		if err := tracedReplay(src, *k, *disk, model, first, passSecs, *spans, &out); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// tracedReplay runs one more pass with the source and policy wrapped
// in span recorders, checks it reproduces the untraced result, and
// derives the replay's per-layer metrics from its spans.
func tracedReplay(src *trace.Dir, k int64, disk int, model cost.Model, want *sim.Result, untracedSecs float64, spansPath string, out *replayOut) error {
	c, err := newCafe(k, disk)
	if err != nil {
		return err
	}
	rec := newRecorder(2*int(src.Len()) + 16)
	t := time.Now()
	res, err := sim.Replay(&tracedCache{inner: c, rec: rec}, tracedSource{Dir: src, rec: rec}, model, sim.Options{})
	if err != nil {
		return err
	}
	wall := time.Since(t)
	res.Series = nil
	if *res != *want {
		out.Violations = append(out.Violations, fmt.Sprintf("traced pass result %+v differs from untraced %+v", *res, *want))
	}
	if spansPath != "" {
		if err := rec.dump(spansPath); err != nil {
			return err
		}
	}
	var decide []float64
	var decideNs, readNs int64
	var filled, evicted, redirects int64
	for _, s := range rec.spans {
		d := s.End - s.Start
		switch s.Kind {
		case kDecide:
			decide = append(decide, float64(d)/1e3)
			decideNs += d
			filled += int64(s.A)
			evicted += int64(s.B)
			if s.Err {
				redirects++
			}
		case kTraceRead:
			readNs += d
		}
	}
	sort.Float64s(decide)
	n := float64(res.Requests)
	L := out.Layers
	L["policy.decide_us_p50"] = quantile(decide, 0.5)
	L["policy.decide_us_p99"] = quantile(decide, 0.99)
	L["policy.decide_share"] = float64(decideNs) / float64(wall)
	L["policy.filled_chunks_per_req"] = float64(filled) / n
	L["policy.evicted_chunks_per_req"] = float64(evicted) / n
	L["policy.redirect_share"] = float64(redirects) / n
	L["trace.read_ns_per_req"] = float64(readNs) / n
	L["sim.self_ns_per_req"] = float64(int64(wall)-decideNs-readNs) / n
	L["bench.tracing_overhead"] = wall.Seconds()/untracedSecs - 1
	return nil
}

// genReplayTrace writes the replay workload's month-scale trace as a
// columnar directory.
func genReplayTrace(seed int64, dir string, smoke bool) error {
	p := replayProfile(seed, smoke)
	days := replayDays
	if smoke {
		days = 2
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	_, err := workload.GenerateDir(p, days, dir, workload.DirGenOptions{})
	return err
}
