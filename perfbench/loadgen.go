package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/edge"
)

// liveConns is how many connections the load generator opens to the
// edge under test: one per CPU, at most two.
var liveConns = min(runtime.NumCPU(), 2)

// loadGen sends scheduled requests to one edge over at most conns
// connections. It is the benchmark's own process; the edge and origin
// run in theirs.
type loadGen struct {
	base   string // edge base URL
	conns  int
	client *http.Client
}

func newLoadGen(base string, conns int) *loadGen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadGen{base: base, conns: conns, client: &http.Client{
		Transport:     tr,
		Timeout:       60 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}}
}

func (g *loadGen) close() { g.client.CloseIdleConnections() }

// outcome is what the client saw for one request. Times are offsets
// from the segment's start.
type outcome struct {
	enqueued time.Duration // the dispatcher released it (due + timer lateness)
	picked   time.Duration // a connection became free for it
	first    time.Duration // response headers arrived
	done     time.Duration // last body byte arrived
	status   int
	bytes    int64
	bad      string // first violated output check, "" if none
	cut      string // the request did not complete (transport error, body cut short), "" if it did
}

func (o outcome) latency(due time.Duration) time.Duration { return o.done - due }

// run sends reqs open-loop: each is released at its due time whatever
// the edge is doing, and waits for a free connection. null sends each
// request to the edge process's null handler instead, with the same
// body size. expected holds the bodies of sampled requests.
func (g *loadGen) run(reqs []scheduled, null bool, expected map[uint64][]byte) []outcome {
	out := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // never blocks the dispatcher
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 256<<10)
			for i := range queue {
				out[i].picked = time.Since(start)
				g.do(start, &reqs[i], &out[i], null, expected[reqs[i].id], buf)
			}
		}()
	}
	for i := range reqs {
		if d := reqs[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i].enqueued = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

func (g *loadGen) do(start time.Time, r *scheduled, o *outcome, null bool, want []byte, buf []byte) {
	n := r.End - r.Start + 1
	url := fmt.Sprintf("%s/video?v=%d", g.base, r.Video)
	if null {
		url = fmt.Sprintf("%s/null?n=%d", g.base, n)
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		o.bad = err.Error()
		return
	}
	if !null {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", r.Start, r.End))
	}
	req.Header.Set(hdrRequestID, strconv.FormatUint(r.id, 10))
	req.Header.Set(hdrTraceTime, strconv.FormatInt(r.Time, 10))
	resp, err := g.client.Do(req)
	o.first = time.Since(start)
	if err != nil {
		o.done = o.first
		o.cut = "transport: " + err.Error()
		return
	}
	o.status = resp.StatusCode
	for {
		m, err := resp.Body.Read(buf)
		if m > 0 && want != nil && o.bad == "" && o.status/100 == 2 {
			if o.bytes+int64(m) > int64(len(want)) || !bytes.Equal(buf[:m], want[o.bytes:o.bytes+int64(m)]) {
				o.bad = fmt.Sprintf("body of video %d bytes %d-%d differs from edge.ChunkData near offset %d", r.Video, r.Start, r.End, o.bytes)
			}
		}
		o.bytes += int64(m)
		if err == io.EOF {
			break
		}
		if err != nil {
			o.cut = "body: " + err.Error()
			break
		}
	}
	resp.Body.Close()
	o.done = time.Since(start)
	if o.bad == "" && o.cut == "" {
		o.bad = checkResponse(resp, r, n, o.bytes, null)
	}
}

// checkResponse applies the output checks every response must pass:
// only 200, 206 or 302; a 2xx body has exactly the requested length
// (and a matching Content-Range on 206); a 302 points at the
// alternative location with the request's own path and query.
func checkResponse(resp *http.Response, r *scheduled, n, got int64, null bool) string {
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent:
		if got != n {
			return fmt.Sprintf("status %d body %d bytes, want %d", resp.StatusCode, got, n)
		}
		if resp.StatusCode == http.StatusPartialContent {
			cr := resp.Header.Get("Content-Range")
			var a, b, size int64
			if _, err := fmt.Sscanf(cr, "bytes %d-%d/%d", &a, &b, &size); err != nil || a != r.Start || b != r.End {
				return fmt.Sprintf("Content-Range %q for bytes %d-%d", cr, r.Start, r.End)
			}
		}
	case http.StatusFound:
		if null {
			return "null handler redirected"
		}
		if want := redirectBase + resp.Request.URL.RequestURI(); resp.Header.Get("Location") != want {
			return fmt.Sprintf("302 to %q, want %q", resp.Header.Get("Location"), want)
		}
	default:
		return fmt.Sprintf("status %d", resp.StatusCode)
	}
	return ""
}

// expectedBody is bytes [b0, b1] of video v as edge.ChunkData defines them.
func expectedBody(v chunk.VideoID, b0, b1, k int64) []byte {
	out := make([]byte, 0, b1-b0+1)
	buf := make([]byte, k)
	for c := b0 / k; c <= b1/k; c++ {
		edge.ChunkData(v, uint32(c), buf)
		lo, hi := int64(0), k-1
		if c*k < b0 {
			lo = b0 - c*k
		}
		if c*k+hi > b1 {
			hi = b1 - c*k
		}
		out = append(out, buf[lo:hi+1]...)
	}
	return out
}

// expectedBodies precomputes the sampled bodies before the clock runs,
// so checking them costs only a compare during the measurement.
func expectedBodies(reqs []scheduled, k int64, capBytes int64) map[uint64][]byte {
	m := map[uint64][]byte{}
	var total int64
	for _, r := range reqs {
		if !r.sample || total+r.End-r.Start+1 > capBytes {
			continue
		}
		m[r.id] = expectedBody(r.Video, r.Start, r.End, k)
		total += r.End - r.Start + 1
	}
	return m
}

func (g *loadGen) snap(reset bool) (edgeSnap, error) {
	url := g.base + "/bench/snap"
	if reset {
		url += "?reset=1"
	}
	var s edgeSnap
	resp, err := g.client.Get(url)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("decode snapshot: %w", err)
	}
	return s, nil
}

func (g *loadGen) control(path string) error {
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

// segResult summarizes one segment: client-side latency and the edge's
// counters and resource use around it.
type segResult struct {
	rate       float64
	reqs       []scheduled
	outs       []outcome
	before     edgeSnap
	after      edgeSnap
	failed     int
	violations []string  // wrong outputs
	cut        []string  // requests that did not complete
	lat        []float64 // ms from due to last byte, sorted
	ok2xx      int
	redirects  int
}

func (r *segResult) p(q float64) float64 { return quantile(r.lat, q) }

// measureSegment runs one segment between two edge snapshots and applies the
// per-response checks plus the client-versus-server count check.
func (g *loadGen) measureSegment(rate float64, reqs []scheduled, null bool, expected map[uint64][]byte) (*segResult, error) {
	before, err := g.snap(true)
	if err != nil {
		return nil, err
	}
	outs := g.run(reqs, null, expected)
	after, err := g.snap(false)
	if err != nil {
		return nil, err
	}
	r := &segResult{rate: rate, reqs: reqs, outs: outs, before: before, after: after}
	for i, o := range outs {
		r.lat = append(r.lat, float64(o.latency(reqs[i].due))/1e6)
		if o.bad != "" {
			r.failed++
			r.violations = append(r.violations, fmt.Sprintf("request %d: %s", reqs[i].id, o.bad))
		}
		if o.cut != "" {
			r.failed++
			r.cut = append(r.cut, fmt.Sprintf("request %d: %s", reqs[i].id, o.cut))
		}
		// Counted by status alone: a 2xx the edge cut short is still one
		// the edge counted as served.
		switch o.status / 100 {
		case 3:
			r.redirects++
		case 2:
			r.ok2xx++
		}
	}
	sort.Float64s(r.lat)
	if !null {
		served := after.Stats.Served - before.Stats.Served
		redirected := after.Stats.Redirected - before.Stats.Redirected
		if int64(r.ok2xx) != served || int64(r.redirects) != redirected {
			r.failed++
			r.violations = append(r.violations, fmt.Sprintf("client saw %d 2xx and %d 302, edge counted %d served and %d redirected",
				r.ok2xx, r.redirects, served, redirected))
		}
		for _, s := range []edgeSnap{before, after} {
			if v := checkEq2(s.Stats); v != "" {
				r.failed++
				r.violations = append(r.violations, v)
			}
		}
	}
	return r, nil
}

// checkEq2 recomputes Eq. 2 from the /stats byte counters and demands
// the reported efficiency bit for bit.
func checkEq2(st edge.Stats) string {
	want := efficiencyOf(st.RequestedBytes, st.FilledBytes, st.RedirectedBytes)
	if st.Efficiency != want {
		return fmt.Sprintf("/stats efficiency %v, Eq. 2 from its counters gives %v", st.Efficiency, want)
	}
	return ""
}
