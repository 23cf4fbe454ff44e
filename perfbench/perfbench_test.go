package main

import (
	"os"
	"reflect"
	"testing"
	"time"

	"videocdn/internal/store"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a smoke run starts its helper processes (os.Executable is the test
// binary then).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		if role := roles[os.Args[1]]; role != nil {
			if err := role(os.Args[2:]); err != nil {
				os.Stderr.WriteString(err.Error() + "\n")
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

func smoke(t *testing.T, workload string, traced bool, wantNames []string) *report {
	t.Helper()
	rep, err := run(options{workload: workload, seed: 7, seconds: 2, trace: traced, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted < 1 {
		t.Fatalf("attempted %d requests", rep.Attempted)
	}
	for _, n := range wantNames {
		if _, ok := rep.Metrics[n]; !ok {
			t.Errorf("metric %s missing", n)
		}
	}
	if len(rep.Metrics) != len(wantNames) {
		t.Errorf("got %d metrics, want %d", len(rep.Metrics), len(wantNames))
	}
	return rep
}

var endToEnd = []string{"setup_s", "cpu_us_per_req", "rss_peak_MB", "efficiency", "replay_rps"}

func layerNames() []string {
	var out []string
	for _, m := range perLayer {
		out = append(out, m.name)
	}
	return out
}

func requireCorrect(t *testing.T, rep *report) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("correct=%v failed=%d: %v", rep.Correct, rep.Failed, rep.violations)
	}
	for name, m := range rep.Metrics {
		if m.Value == 0 {
			t.Errorf("%s reads 0", name)
		}
	}
}

func TestSmokeHotServe(t *testing.T) {
	requireCorrect(t, smoke(t, "hot-serve", false, endToEnd))
}

func TestSmokeReplay(t *testing.T) {
	requireCorrect(t, smoke(t, "replay", false, endToEnd))
}

func TestSmokeHotServeTraced(t *testing.T) {
	rep := smoke(t, "hot-serve", true, layerNames())
	if !rep.Correct {
		t.Fatalf("violations: %v", rep.violations)
	}
	if got := rep.Metrics["edge.serve_sendfile_share"].Value; got != 1 {
		t.Errorf("sendfile share %v on an all-hit slab workload, want 1", got)
	}
	if got := rep.Metrics["edge.handler_us_p50"].Value; got <= 0 {
		t.Errorf("no handler spans")
	}
	// The measured window is all hits; the fill path is the warming's.
	for _, n := range []string{"origin.fetch_ms_p50", "origin.fetches_per_req", "store.put_stream_us_p50"} {
		if rep.Metrics[n].Value <= 0 {
			t.Errorf("%s = %v", n, rep.Metrics[n].Value)
		}
	}
}

func TestSmokeReplayTraced(t *testing.T) {
	rep := smoke(t, "replay", true, layerNames())
	if !rep.Correct {
		t.Fatalf("violations: %v", rep.violations)
	}
	for _, n := range []string{"policy.decide_us_p50", "trace.read_ns_per_req", "sim.self_ns_per_req"} {
		if rep.Metrics[n].Value <= 0 {
			t.Errorf("%s = %v", n, rep.Metrics[n].Value)
		}
	}
}

// churn runs into an edge defect under concurrent eviction (responses
// cut short, degraded redirects; see README.md). Those count as failed
// operations, which these tests log; a wrong output still fails them.
func TestSmokeChurn(t *testing.T) {
	rep := smoke(t, "churn", false, endToEnd)
	if !rep.Correct {
		t.Fatalf("wrong outputs: %v", rep.violations)
	}
	for _, v := range rep.violations {
		t.Log(v)
	}
}

func TestSmokeChurnTraced(t *testing.T) {
	rep := smoke(t, "churn", true, layerNames())
	if !rep.Correct {
		t.Fatalf("wrong outputs: %v", rep.violations)
	}
	for _, v := range rep.violations {
		t.Log(v)
	}
	if rep.Metrics["origin.fetches_per_req"].Value <= 0 || rep.Metrics["store.put_stream_us_p50"].Value <= 0 {
		t.Errorf("churn made no origin fetches or store writes: %+v", rep.Metrics)
	}
}

// A response cut short is a failed operation; a wrong one also makes
// the run incorrect.
func TestReportFailureKinds(t *testing.T) {
	rep := newReport()
	rep.failOp("request 1: body: unexpected EOF")
	if !rep.Correct || rep.Failed != 1 {
		t.Fatalf("after failOp: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
	rep.fail("request 2: status 500")
	if rep.Correct || rep.Failed != 2 {
		t.Fatalf("after fail: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

// The traced store must expose exactly the optional interfaces of the
// slab store it wraps: edge.NewServer picks its serve and fill paths by
// type assertion.
func TestTracedStoreInterfaces(t *testing.T) {
	slab, err := store.NewSlab(t.TempDir(), store.SlabConfig{SlotBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer slab.Close()
	traced := &tracedStore{inner: slab, rec: newRecorder(16), k: 4096}
	for _, iface := range []reflect.Type{
		reflect.TypeOf((*store.BorrowGetter)(nil)).Elem(),
		reflect.TypeOf((*store.SectionGetter)(nil)).Elem(),
		reflect.TypeOf((*store.StreamPutter)(nil)).Elem(),
	} {
		if reflect.TypeOf(slab).Implements(iface) != reflect.TypeOf(traced).Implements(iface) {
			t.Errorf("%v: slab %v, traced %v", iface, reflect.TypeOf(slab).Implements(iface), reflect.TypeOf(traced).Implements(iface))
		}
	}
}

func TestArrivalsDependOnlyOnSeed(t *testing.T) {
	rates := []float64{100, 300}
	durs := []time.Duration{time.Second, 2 * time.Second}
	a, b := arrivalTimes(3, rates, durs), arrivalTimes(3, rates, durs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrivals")
	}
	if reflect.DeepEqual(a, arrivalTimes(4, rates, durs)) {
		t.Fatal("different seeds gave the same arrivals")
	}
	for i, d := range a {
		if got, want := float64(len(d)), rates[i]*durs[i].Seconds(); got < want/2 || got > want*2 {
			t.Errorf("rung %d: %v arrivals, want about %v", i, got, want)
		}
	}
}

func TestMaxRateInterpolates(t *testing.T) {
	rung := func(rate, p99 float64) *segResult {
		r := &segResult{rate: rate, lat: []float64{p99, p99}}
		r.reqs = make([]scheduled, 2)
		r.outs = []outcome{{done: time.Duration(p99 * 1e6)}, {done: time.Duration(p99 * 1e6)}}
		return r
	}
	rungs := []*segResult{rung(100, 5), rung(200, 10), rung(300, 40)}
	// log-linear between (200, 10 ms) and (300, 40 ms): 20 ms is halfway.
	if got := maxRate(rungs, 20); got < 149.9+50 || got > 250.1 {
		t.Errorf("maxRate = %v, want 250", got)
	}
	if got := maxRate(rungs, 50); got != 300 {
		t.Errorf("all rungs pass: maxRate = %v, want 300", got)
	}
}
