// Command benchedge measures the live HTTP edge under concurrent load
// and writes a machine-readable report (BENCH_edge.json by default) —
// the benchmark the repository's performance trajectory tracks for the
// serve path, as BENCH_replay.json does for the offline replay engine.
//
// It stands up the real stack in-process — origin and sharded edge
// server on loopback TCP — and drives it with a closed-loop load
// generator: -concurrency workers, each holding one connection, each
// picking videos from a Zipf popularity distribution and requesting
// one whole chunk, waiting for the full body before the next request.
// Per shard count it reports throughput, p50/p99 latency, the /stats
// Eq. 2 identity, and process allocations per request; a final
// serve_path section benchmarks the cache-hit byte path in isolation
// (expected: 0 allocs/op).
//
// Usage:
//
//	benchedge -o BENCH_edge.json
//	benchedge -shards 1,2,4,8 -concurrency 64 -requests 30000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/cluster"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/edge"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/store"
)

type runRow struct {
	Shards        int     `json:"shards"`
	Concurrency   int     `json:"concurrency"`
	Requests      int     `json:"requests"`
	WallMs        float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Us         float64 `json:"p50_us"`
	P99Us         float64 `json:"p99_us"`
	Redirects     int64   `json:"redirects"`
	HitRatio      float64 `json:"hit_ratio"`
	Efficiency    float64 `json:"efficiency"`
	// AllocsPerRequest is process-wide — it includes the in-process
	// load generator's own client-side allocations, so it bounds the
	// server's from above. The serve_path section isolates the server's
	// hot path.
	AllocsPerRequest float64 `json:"allocs_per_request"`
	// BytesPerSec is 2xx body bytes delivered to clients per wall
	// second; CPUSecPerGB is process CPU time (client and server share
	// the process) per GB of those bytes — the copy work the kernel
	// serve path removes. PeakFillBytes is the high-water mark of fill
	// scratch memory checked out at once across all nodes: the
	// O(fill buffer × in-flight fills) bound, not O(chunk).
	BytesPerSec   float64 `json:"bytes_per_sec"`
	CPUSecPerGB   float64 `json:"cpu_sec_per_gb"`
	PeakFillBytes int64   `json:"peak_fill_bytes"`
	StreamFills   int64   `json:"stream_fills"`
	// SpeedupVs1 is ThroughputRPS over the 1-shard row's (when present).
	SpeedupVs1 float64 `json:"speedup_vs_1shard,omitempty"`
	// Eq2Exact asserts the /stats efficiency equals Eq. 2 recomputed
	// from the aggregated byte counters and the cost model, bit-exact.
	Eq2Exact bool `json:"eq2_identity_exact"`
	// Tier columns: /stats deltas over the measured window (all zero
	// with the hot tier off). HotHitRatio is hot hits over all tier
	// lookups — how much of the store traffic never touched the cold
	// line of defense.
	HotTierHits         int64   `json:"hot_tier_hits"`
	ColdTierHits        int64   `json:"cold_tier_hits"`
	TierMisses          int64   `json:"tier_misses"`
	HotTierBytesServed  int64   `json:"hot_tier_bytes_served"`
	ColdTierBytesServed int64   `json:"cold_tier_bytes_served"`
	HotHitRatio         float64 `json:"hot_hit_ratio"`
	// Cluster columns (present only with -peers > 1): C_P bytes moved
	// over the intra-cluster peer line during the measured window, and
	// PeerHitRatio — the share of ingress bytes the peer line carried
	// instead of the origin.
	Peers           int     `json:"peers,omitempty"`
	PeerFilledBytes int64   `json:"peer_filled_bytes,omitempty"`
	PeerServedBytes int64   `json:"peer_served_bytes,omitempty"`
	PeerHitRatio    float64 `json:"peer_hit_ratio,omitempty"`
}

type servePathRow struct {
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	BytesStreamed int64   `json:"bytes_streamed_per_op"`
}

// httpServeRow is one arm of the sendfile A/B: warm cache hits pulled
// whole-video over real loopback TCP from a non-mmap file-backed store,
// with the kernel serve path on vs off. The chunk counters prove which
// byte path actually ran.
type httpServeRow struct {
	BytesPerSec    float64 `json:"bytes_per_sec"`
	CPUSecPerGB    float64 `json:"cpu_sec_per_gb"`
	BytesServed    int64   `json:"bytes_served"`
	SendfileChunks int64   `json:"sendfile_chunks"`
	CopyChunks     int64   `json:"copy_chunks"`
}

type report struct {
	GeneratedAt string       `json:"generated_at"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	CPUs        int          `json:"cpus"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Note        string       `json:"note,omitempty"`
	Algo        string       `json:"algo"`
	Alpha       float64      `json:"alpha"`
	ChunkBytes  int64        `json:"chunk_bytes"`
	DiskChunks  int          `json:"disk_chunks"`
	Videos      int          `json:"videos"`
	Zipf        float64      `json:"zipf_s"`
	Store       string       `json:"store"`
	AsyncFills  bool         `json:"async_fills"`
	HotMB       int64        `json:"hot_mb"`
	Runs        []runRow     `json:"runs"`
	ServePath   servePathRow `json:"serve_path"`
	// ServePathCold is the same isolated cache-hit benchmark with the
	// hot tier disabled — the pooled-copy baseline the zero-copy path
	// is measured against.
	ServePathCold servePathRow `json:"serve_path_cold"`
	// ServePathSendfile vs ServePathCopy: the same warm-hit HTTP
	// workload over a non-mmap slab store with the kernel serve path on
	// vs off — the PR's CPU-seconds-per-GB acceptance comparison, from
	// one run on one machine.
	ServePathSendfile httpServeRow `json:"serve_path_sendfile"`
	ServePathCopy     httpServeRow `json:"serve_path_copy"`
}

// storeOpts selects the chunk store backend, fill mode, and hot tier
// budget under test.
type storeOpts struct {
	kind       string // mem, fs or slab
	async      bool
	hotBytes   int64 // RAM hot tier budget; 0 disables the tier
	noSendfile bool  // disable the kernel serve path
}

// open builds a fresh store of the selected kind in a temp dir (for
// the persistent backends) and returns it with its cleanup.
func (o storeOpts) open(chunkSize int64) (store.Store, func(), error) {
	switch o.kind {
	case "", "mem":
		return store.NewMem(), func() {}, nil
	case "fs":
		dir, err := os.MkdirTemp("", "benchedge-fs-")
		if err != nil {
			return nil, nil, err
		}
		s, err := store.NewFS(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return s, func() { os.RemoveAll(dir) }, nil
	case "slab":
		dir, err := os.MkdirTemp("", "benchedge-slab-")
		if err != nil {
			return nil, nil, err
		}
		// Mmap on: the serve path borrows page-cache bytes directly
		// wherever the platform supports it.
		s, err := store.NewSlab(dir, store.SlabConfig{SlotBytes: chunkSize, Mmap: true})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return s, func() { s.Close(); os.RemoveAll(dir) }, nil
	}
	return nil, nil, fmt.Errorf("unknown store backend %q (mem, fs or slab)", o.kind)
}

// edgeStats is the subset of the /stats body the harness checks.
type edgeStats struct {
	Served          int64   `json:"served"`
	Redirected      int64   `json:"redirected"`
	RequestedBytes  int64   `json:"requested_bytes"`
	FilledBytes     int64   `json:"filled_bytes"`
	RedirectedBytes int64   `json:"redirected_bytes"`
	Efficiency      float64 `json:"efficiency"`
	IngressRatio    float64 `json:"ingress_ratio"`
	// Tier counters (absent from the body with the hot tier off).
	HotTierHits         int64 `json:"hot_tier_hits"`
	ColdTierHits        int64 `json:"cold_tier_hits"`
	TierMisses          int64 `json:"tier_misses"`
	HotTierBytesServed  int64 `json:"hot_tier_bytes_served"`
	ColdTierBytesServed int64 `json:"cold_tier_bytes_served"`
	// Peer counters (absent without cluster peer traffic).
	PeerFilledBytes int64 `json:"peer_filled_bytes"`
	PeerServedBytes int64 `json:"peer_served_bytes"`
}

// add accumulates another node's stats into the receiver (cluster
// runs sum per-node ledgers; Efficiency is recomputed from the sums).
func (s *edgeStats) add(o edgeStats) {
	s.Served += o.Served
	s.Redirected += o.Redirected
	s.RequestedBytes += o.RequestedBytes
	s.FilledBytes += o.FilledBytes
	s.RedirectedBytes += o.RedirectedBytes
	s.HotTierHits += o.HotTierHits
	s.ColdTierHits += o.ColdTierHits
	s.TierMisses += o.TierMisses
	s.HotTierBytesServed += o.HotTierBytesServed
	s.ColdTierBytesServed += o.ColdTierBytesServed
	s.PeerFilledBytes += o.PeerFilledBytes
	s.PeerServedBytes += o.PeerServedBytes
}

func main() {
	out := flag.String("o", "BENCH_edge.json", "output JSON path")
	shardsFlag := flag.String("shards", "1,2,4,8", "comma-separated shard counts to measure")
	concurrency := flag.Int("concurrency", 64, "closed-loop client workers")
	requests := flag.Int("requests", 30000, "measured requests per shard count")
	warmup := flag.Int("warmup", 0, "warmup requests (default: requests/4)")
	videos := flag.Int("videos", 256, "catalog size")
	zipfS := flag.Float64("zipf", 1.2, "Zipf popularity exponent (> 1), or 0 for uniform")
	chunkKB := flag.Int64("chunk-kb", 64, "chunk size in KB")
	diskChunks := flag.Int("disk-chunks", 8192, "edge disk size in chunks (total, divided across shards)")
	algo := flag.String("algo", "cafe", "edge policy (any registered online policy: cafe, xlru, lru, lruq, admit, ...)")
	alpha := flag.Float64("alpha", 2, "alpha_F2R")
	storeKind := flag.String("store", "mem", "chunk store backend: mem, fs or slab")
	fillAsync := flag.Bool("fill-async", false, "commit fill writes asynchronously (write-behind)")
	hotMB := flag.Int64("hot-mb", 64, "RAM hot tier budget in MB (0 disables the tier)")
	peers := flag.Int("peers", 0, "cluster size: N in-process edge nodes with rendezvous-routed peer fill, workers spread across all of them (0 or 1 = standalone)")
	peerAlpha := flag.Float64("peer-alpha", 0.25, "alpha_P2R: peer-fill cost relative to a redirect (cluster runs)")
	noSendfile := flag.Bool("no-sendfile", false, "disable the kernel (sendfile) serve path in the load-test runs")
	servepathMB := flag.Int64("servepath-mb", 256, "MB pulled per arm of the sendfile on/off HTTP A/B (serve_path_sendfile / serve_path_copy)")
	flag.Parse()
	if *warmup == 0 {
		*warmup = *requests / 4
	}

	chunkSize := *chunkKB << 10
	catalog := edge.DeterministicCatalog{MinBytes: 4 * chunkSize, MaxBytes: 16 * chunkSize}
	rep := &report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Algo:        *algo,
		Alpha:       *alpha,
		ChunkBytes:  chunkSize,
		DiskChunks:  *diskChunks,
		Videos:      *videos,
		Zipf:        *zipfS,
		Store:       *storeKind,
		AsyncFills:  *fillAsync,
		HotMB:       *hotMB,
	}
	so := storeOpts{
		kind: *storeKind, async: *fillAsync, hotBytes: *hotMB << 20,
		noSendfile: *noSendfile,
	}
	if rep.CPUs < 4 {
		rep.Note = fmt.Sprintf("generated on a %d-CPU machine: shard scaling is lock-contention relief only; regenerate on multi-core for real parallel speedup", rep.CPUs)
	}

	for _, tok := range strings.Split(*shardsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad -shards entry %q", tok))
		}
		if *peers > 1 {
			fmt.Fprintf(os.Stderr, "edge: %d-node cluster, %d shard(s), %d workers, %d requests...\n", *peers, n, *concurrency, *requests)
		} else {
			fmt.Fprintf(os.Stderr, "edge: %d shard(s), %d workers, %d requests...\n", n, *concurrency, *requests)
		}
		row, err := measure(n, *peers, *concurrency, *warmup, *requests, *videos, *zipfS, chunkSize, *diskChunks, *algo, *alpha, *peerAlpha, catalog, so)
		if err != nil {
			fatal(err)
		}
		rep.Runs = append(rep.Runs, row)
	}
	if len(rep.Runs) > 0 && rep.Runs[0].Shards == 1 {
		base := rep.Runs[0].ThroughputRPS
		for i := range rep.Runs[1:] {
			rep.Runs[i+1].SpeedupVs1 = rep.Runs[i+1].ThroughputRPS / base
		}
	}

	sp, err := measureServePath(chunkSize, *algo, *alpha, catalog, so)
	if err != nil {
		fatal(err)
	}
	rep.ServePath = sp
	coldOpts := so
	coldOpts.hotBytes = 0
	spCold, err := measureServePath(chunkSize, *algo, *alpha, catalog, coldOpts)
	if err != nil {
		fatal(err)
	}
	rep.ServePathCold = spCold

	fmt.Fprintf(os.Stderr, "edge: sendfile A/B (%d MB per arm)...\n", *servepathMB)
	sfOn, err := measureHTTPServePath(chunkSize, *algo, *alpha, catalog, *servepathMB, false)
	if err != nil {
		fatal(err)
	}
	rep.ServePathSendfile = sfOn
	sfOff, err := measureHTTPServePath(chunkSize, *algo, *alpha, catalog, *servepathMB, true)
	if err != nil {
		fatal(err)
	}
	rep.ServePathCopy = sfOff

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d cores)\n", *out, rep.CPUs)
	for _, r := range rep.Runs {
		extra := ""
		if r.SpeedupVs1 != 0 {
			extra = fmt.Sprintf("  %.2fx vs 1 shard", r.SpeedupVs1)
		}
		tier := ""
		if lookups := r.HotTierHits + r.ColdTierHits + r.TierMisses; lookups > 0 {
			tier = fmt.Sprintf("  tier hot/cold/miss=%d/%d/%d (%.0f%% hot)",
				r.HotTierHits, r.ColdTierHits, r.TierMisses, 100*r.HotHitRatio)
		}
		peer := ""
		if r.Peers > 1 {
			peer = fmt.Sprintf("  peers=%d peer-hit=%.2f C_P=%dB", r.Peers, r.PeerHitRatio, r.PeerFilledBytes)
		}
		fmt.Printf("  shards=%d: %.0f req/s  p50=%.0fus p99=%.0fus  hit=%.2f%s%s%s\n",
			r.Shards, r.ThroughputRPS, r.P50Us, r.P99Us, r.HitRatio, extra, tier, peer)
	}
	fmt.Printf("  serve_path: %.0f ns/op, %g allocs/op (hot tier on); %.0f ns/op, %g allocs/op (off)\n",
		rep.ServePath.NsPerOp, rep.ServePath.AllocsPerOp,
		rep.ServePathCold.NsPerOp, rep.ServePathCold.AllocsPerOp)
	fmt.Printf("  sendfile A/B: on %.0f MB/s %.3f cpu-s/GB (%d sendfile / %d copy chunks); off %.0f MB/s %.3f cpu-s/GB (%d copy chunks)\n",
		rep.ServePathSendfile.BytesPerSec/1e6, rep.ServePathSendfile.CPUSecPerGB,
		rep.ServePathSendfile.SendfileChunks, rep.ServePathSendfile.CopyChunks,
		rep.ServePathCopy.BytesPerSec/1e6, rep.ServePathCopy.CPUSecPerGB,
		rep.ServePathCopy.CopyChunks)
}

// newEdge builds origin + n-shard edge server over loopback TCP. The
// returned cleanup drains the fill pipeline and removes the store.
func newEdge(n int, chunkSize int64, diskChunks int, algo string, alpha float64, catalog edge.Catalog, so storeOpts) (*edge.Server, *httptest.Server, *httptest.Server, func(), error) {
	o, err := edge.NewOrigin(catalog, chunkSize)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	origin := httptest.NewServer(o)
	st, storeCleanup, err := so.open(chunkSize)
	if err != nil {
		origin.Close()
		return nil, nil, nil, nil, err
	}
	s, err := edge.NewServer(edge.Config{
		Shards:          n,
		CacheFactory:    cacheFactory(algo, alpha),
		CacheConfig:     core.Config{ChunkSize: chunkSize, DiskChunks: diskChunks},
		Store:           st,
		OriginURL:       origin.URL,
		RedirectURL:     "http://secondary.example",
		ChunkSize:       chunkSize,
		Alpha:           alpha,
		AsyncFills:      so.async,
		HotBytes:        so.hotBytes,
		DisableSendfile: so.noSendfile,
	})
	if err != nil {
		storeCleanup()
		origin.Close()
		return nil, nil, nil, nil, err
	}
	srv := httptest.NewServer(s)
	cleanup := func() {
		s.Close() // drain deferred writes before the store goes away
		storeCleanup()
	}
	return s, origin, srv, cleanup, nil
}

// cacheFactory builds the per-shard decision engine the -algo flag
// selects, resolved through the policy registry.
func cacheFactory(algo string, alpha float64) func(int, core.Config) (core.Cache, error) {
	return func(_ int, sub core.Config) (core.Cache, error) {
		return policy.NewWithEnv(algo, sub, policy.Env{Alpha: alpha}, nil)
	}
}

// settableHandler lets a node's listener exist before the edge server
// behind it: the cluster's peer clients need every node's URL before
// any edge can be built.
type settableHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (l *settableHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *settableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	h.ServeHTTP(w, r)
}

// newEdgeCluster builds one origin and peers edge nodes wired into a
// rendezvous cluster: every node consults the owning peer before the
// origin. Each node gets its own store and n shards.
func newEdgeCluster(peers, n int, chunkSize int64, diskChunks int, algo string, alpha, peerAlpha float64, catalog edge.Catalog, so storeOpts) ([]*edge.Server, []*httptest.Server, *httptest.Server, func(), error) {
	o, err := edge.NewOrigin(catalog, chunkSize)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	origin := httptest.NewServer(o)
	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	fail := func(err error) ([]*edge.Server, []*httptest.Server, *httptest.Server, func(), error) {
		cleanup()
		origin.Close()
		return nil, nil, nil, nil, err
	}

	lates := make([]*settableHandler, peers)
	targets := make([]*httptest.Server, peers)
	var members []cluster.Node
	for i := 0; i < peers; i++ {
		lates[i] = &settableHandler{}
		targets[i] = httptest.NewServer(lates[i])
		srv := targets[i]
		cleanups = append(cleanups, srv.Close)
		members = append(members, cluster.Node{ID: fmt.Sprintf("node-%d", i), URL: srv.URL})
	}
	membership, err := cluster.NewMembership(members)
	if err != nil {
		return fail(err)
	}
	router := cluster.NewRouter(membership)

	servers := make([]*edge.Server, peers)
	for i := 0; i < peers; i++ {
		client := cluster.NewClient(router, cluster.ClientConfig{
			Self:          members[i].ID,
			MaxChunkBytes: chunkSize,
		})
		cleanups = append(cleanups, client.Close)
		st, storeCleanup, err := so.open(chunkSize)
		if err != nil {
			return fail(err)
		}
		cleanups = append(cleanups, storeCleanup)
		s, err := edge.NewServer(edge.Config{
			Shards:          n,
			CacheFactory:    cacheFactory(algo, alpha),
			CacheConfig:     core.Config{ChunkSize: chunkSize, DiskChunks: diskChunks},
			Store:           st,
			OriginURL:       origin.URL,
			RedirectURL:     "http://secondary.example",
			ChunkSize:       chunkSize,
			Alpha:           alpha,
			AsyncFills:      so.async,
			HotBytes:        so.hotBytes,
			DisableSendfile: so.noSendfile,
			PeerFill:        client,
			PeerAlpha:       peerAlpha,
			NodeID:          members[i].ID,
		})
		if err != nil {
			return fail(err)
		}
		// Drain before the store and listener go away (cleanups run in
		// reverse order).
		cleanups = append(cleanups, func() { s.Close() })
		servers[i] = s
		lates[i].set(s)
	}
	return servers, targets, origin, cleanup, nil
}

// measure runs one closed-loop load test against an n-shard server, or
// against a peers-node cluster of them when peers > 1 (workers spread
// across all nodes, so non-owners pull over the peer line).
func measure(n, peers, concurrency, warmup, requests, videos int, zipfS float64, chunkSize int64, diskChunks int, algo string, alpha, peerAlpha float64, catalog edge.Catalog, so storeOpts) (runRow, error) {
	var (
		servers []*edge.Server
		targets []*httptest.Server
		origin  *httptest.Server
		cleanup func()
		err     error
	)
	if peers > 1 {
		servers, targets, origin, cleanup, err = newEdgeCluster(peers, n, chunkSize, diskChunks, algo, alpha, peerAlpha, catalog, so)
		if err != nil {
			return runRow{}, err
		}
	} else {
		s, o, srv, c, nerr := newEdge(n, chunkSize, diskChunks, algo, alpha, catalog, so)
		if nerr != nil {
			return runRow{}, nerr
		}
		servers, targets, origin = []*edge.Server{s}, []*httptest.Server{srv}, o
		cleanup = func() { c(); srv.Close() }
	}
	defer cleanup()
	defer origin.Close()

	transport := &http.Transport{
		MaxIdleConns:        concurrency * 2,
		MaxIdleConnsPerHost: concurrency * 2,
	}
	defer transport.CloseIdleConnections()

	run := func(total int, record bool) ([][]int64, int64, int64, error) {
		lats := make([][]int64, concurrency)
		var issued, redirects, bodyBytes atomic.Int64
		var wg sync.WaitGroup
		var firstErr atomic.Value
		for w := 0; w < concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(7*n + w)))
				var zipf *rand.Zipf
				if zipfS > 1 {
					zipf = rand.NewZipf(rng, zipfS, 1, uint64(videos-1))
				}
				client := &http.Client{
					Transport: transport,
					CheckRedirect: func(*http.Request, []*http.Request) error {
						return http.ErrUseLastResponse
					},
				}
				base := targets[w%len(targets)].URL
				if record {
					lats[w] = make([]int64, 0, total/concurrency*2)
				}
				for issued.Add(1) <= int64(total) {
					var v chunk.VideoID
					if zipf != nil {
						v = chunk.VideoID(1 + zipf.Uint64())
					} else {
						v = chunk.VideoID(1 + rng.Intn(videos))
					}
					size, _ := catalog.SizeOf(v)
					c := rng.Int63n((size + chunkSize - 1) / chunkSize)
					start := c * chunkSize
					end := (c+1)*chunkSize - 1
					if end >= size {
						end = size - 1
					}
					t0 := time.Now()
					resp, err := client.Get(fmt.Sprintf("%s/video?v=%d&start=%d&end=%d", base, v, start, end))
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					nbody, cerr := io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if cerr != nil {
						firstErr.CompareAndSwap(nil, cerr)
						return
					}
					switch resp.StatusCode {
					case http.StatusFound:
						redirects.Add(1)
					case http.StatusOK, http.StatusPartialContent:
						bodyBytes.Add(nbody)
					default:
						firstErr.CompareAndSwap(nil, fmt.Errorf("status %d for v=%d [%d,%d]", resp.StatusCode, v, start, end))
						return
					}
					if record {
						lats[w] = append(lats[w], time.Since(t0).Nanoseconds())
					}
				}
			}(w)
		}
		wg.Wait()
		if err, ok := firstErr.Load().(error); ok {
			return nil, 0, 0, err
		}
		return lats, redirects.Load(), bodyBytes.Load(), nil
	}

	// sumStats fetches every node's /stats; the aggregate is the sum of
	// the per-node ledgers, the per-node list feeds the identity check.
	sumStats := func() (edgeStats, []edgeStats, error) {
		var agg edgeStats
		nodes := make([]edgeStats, 0, len(targets))
		for _, tgt := range targets {
			st, err := fetchStats(tgt.URL)
			if err != nil {
				return edgeStats{}, nil, err
			}
			nodes = append(nodes, st)
			agg.add(st)
		}
		return agg, nodes, nil
	}

	if _, _, _, err := run(warmup, false); err != nil {
		return runRow{}, err
	}
	before, _, err := sumStats()
	if err != nil {
		return runRow{}, err
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPUSeconds()
	t0 := time.Now()
	lats, redirects, bodyBytes, err := run(requests, true)
	if err != nil {
		return runRow{}, err
	}
	wall := time.Since(t0)
	cpu := processCPUSeconds() - cpu0
	runtime.ReadMemStats(&m1)

	after, perNode, err := sumStats()
	if err != nil {
		return runRow{}, err
	}
	if got := servers[0].NumShards(); got != n {
		return runRow{}, fmt.Errorf("server has %d shards, want %d", got, n)
	}

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / 1e3
	}

	// Steady-state hit ratio over the measured window (stats delta).
	// Ingress of either kind — origin fill or peer fill — is not a
	// local hit.
	dReq := after.RequestedBytes - before.RequestedBytes
	dFill := after.FilledBytes - before.FilledBytes
	dRed := after.RedirectedBytes - before.RedirectedBytes
	dPeer := after.PeerFilledBytes - before.PeerFilledBytes
	hit := 0.0
	if dReq > 0 {
		hit = 1 - float64(dFill+dPeer)/float64(dReq) - float64(dRed)/float64(dReq)
		if hit < 0 {
			hit = 0
		}
	}

	// The efficiency identity, cluster-wide: every node must report an
	// efficiency bit-equal to Eq. 2 recomputed from its own counters,
	// and the cluster row reports the aggregate over the summed
	// ledgers under the same model.
	model := cost.MustModel(alpha)
	if peers > 1 {
		if model, err = model.WithPeer(peerAlpha); err != nil {
			return runRow{}, err
		}
	}
	exact := true
	for _, st := range perNode {
		want := (cost.Counters{
			Requested:  st.RequestedBytes,
			Filled:     st.FilledBytes,
			Redirected: st.RedirectedBytes,
			PeerFilled: st.PeerFilledBytes,
		}).Efficiency(model)
		exact = exact && st.Efficiency == want
	}
	efficiency := (cost.Counters{
		Requested:  after.RequestedBytes,
		Filled:     after.FilledBytes,
		Redirected: after.RedirectedBytes,
		PeerFilled: after.PeerFilledBytes,
	}).Efficiency(model)

	row := runRow{
		Shards:              n,
		Concurrency:         concurrency,
		Requests:            len(all),
		WallMs:              float64(wall.Nanoseconds()) / 1e6,
		ThroughputRPS:       float64(len(all)) / wall.Seconds(),
		P50Us:               pct(0.50),
		P99Us:               pct(0.99),
		Redirects:           redirects,
		HitRatio:            hit,
		Efficiency:          efficiency,
		AllocsPerRequest:    float64(m1.Mallocs-m0.Mallocs) / float64(len(all)),
		Eq2Exact:            exact,
		HotTierHits:         after.HotTierHits - before.HotTierHits,
		ColdTierHits:        after.ColdTierHits - before.ColdTierHits,
		TierMisses:          after.TierMisses - before.TierMisses,
		HotTierBytesServed:  after.HotTierBytesServed - before.HotTierBytesServed,
		ColdTierBytesServed: after.ColdTierBytesServed - before.ColdTierBytesServed,
	}
	if lookups := row.HotTierHits + row.ColdTierHits + row.TierMisses; lookups > 0 {
		row.HotHitRatio = float64(row.HotTierHits) / float64(lookups)
	}
	if wall > 0 {
		row.BytesPerSec = float64(bodyBytes) / wall.Seconds()
	}
	if bodyBytes > 0 {
		row.CPUSecPerGB = cpu / (float64(bodyBytes) / 1e9)
	}
	// Peak fill scratch is a per-node high-water mark; the bound the row
	// reports is the worst node. Stream fills sum cluster-wide.
	for _, s := range servers {
		ps := s.ServePathStats()
		if ps.FillBufPeakBytes > row.PeakFillBytes {
			row.PeakFillBytes = ps.FillBufPeakBytes
		}
		row.StreamFills += ps.StreamFills
	}
	if peers > 1 {
		row.Peers = peers
		row.PeerFilledBytes = dPeer
		row.PeerServedBytes = after.PeerServedBytes - before.PeerServedBytes
		if ingress := dFill + dPeer; ingress > 0 {
			row.PeerHitRatio = float64(dPeer) / float64(ingress)
		}
	}
	return row, nil
}

// fetchStats decodes the subset of /stats the harness verifies.
func fetchStats(base string) (edgeStats, error) {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return edgeStats{}, err
	}
	defer resp.Body.Close()
	var st edgeStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return edgeStats{}, err
	}
	return st, nil
}

// measureServePath benchmarks the isolated cache-hit byte path
// (Server.StreamRange): this is where the 0 allocs/request invariant
// lives.
func measureServePath(chunkSize int64, algo string, alpha float64, catalog edge.Catalog, so storeOpts) (servePathRow, error) {
	s, origin, srv, cleanup, err := newEdge(1, chunkSize, 256, algo, alpha, catalog, so)
	if err != nil {
		return servePathRow{}, err
	}
	defer cleanup()
	defer origin.Close()
	defer srv.Close()
	const v = chunk.VideoID(1)
	size, _ := catalog.SizeOf(v)
	for i := 0; i < 2; i++ { // admit + fill the whole video
		resp, err := http.Get(fmt.Sprintf("%s/video?v=%d", srv.URL, v))
		if err != nil {
			return servePathRow{}, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return servePathRow{}, fmt.Errorf("warmup status %d", resp.StatusCode)
		}
	}
	s.Flush() // serve-path timing must not overlap deferred fill writes
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.StreamRange(nil, io.Discard, v, 0, size-1); err != nil {
				b.Fatal(err)
			}
		}
	})
	return servePathRow{
		NsPerOp:       float64(res.NsPerOp()),
		AllocsPerOp:   float64(res.AllocsPerOp()),
		BytesPerOp:    float64(res.AllocedBytesPerOp()),
		BytesStreamed: size,
	}, nil
}

// measureHTTPServePath runs one arm of the sendfile A/B: a warm
// whole-video hit loop over real loopback TCP against a single-shard
// edge on a non-mmap slab store (no borrowable bytes, no hot tier —
// every hit must go through either the kernel section path or the
// pooled copy loop, so the two arms isolate exactly the syscall that
// moves the bytes). Returns throughput and process CPU per GB served.
func measureHTTPServePath(chunkSize int64, algo string, alpha float64, catalog edge.Catalog, targetMB int64, disableSendfile bool) (httpServeRow, error) {
	dir, err := os.MkdirTemp("", "benchedge-ab-")
	if err != nil {
		return httpServeRow{}, err
	}
	defer os.RemoveAll(dir)
	st, err := store.NewSlab(dir, store.SlabConfig{SlotBytes: chunkSize})
	if err != nil {
		return httpServeRow{}, err
	}
	defer st.Close()
	o, err := edge.NewOrigin(catalog, chunkSize)
	if err != nil {
		return httpServeRow{}, err
	}
	origin := httptest.NewServer(o)
	defer origin.Close()
	s, err := edge.NewServer(edge.Config{
		Shards:          1,
		CacheFactory:    cacheFactory(algo, alpha),
		CacheConfig:     core.Config{ChunkSize: chunkSize, DiskChunks: 256},
		Store:           st,
		OriginURL:       origin.URL,
		RedirectURL:     "http://secondary.example",
		ChunkSize:       chunkSize,
		Alpha:           alpha,
		DisableSendfile: disableSendfile,
	})
	if err != nil {
		return httpServeRow{}, err
	}
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	const v = chunk.VideoID(1)
	size, _ := catalog.SizeOf(v)
	url := fmt.Sprintf("%s/video?v=%d", srv.URL, v)
	client := &http.Client{}
	for i := 0; i < 2; i++ { // admit + fill the whole video
		resp, err := client.Get(url)
		if err != nil {
			return httpServeRow{}, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return httpServeRow{}, fmt.Errorf("sendfile A/B warmup status %d", resp.StatusCode)
		}
	}
	s.Flush() // timing must not overlap deferred fill writes
	warm := s.ServePathStats()

	passes := (targetMB << 20) / size
	if passes < 1 {
		passes = 1
	}
	var served int64
	cpu0 := processCPUSeconds()
	t0 := time.Now()
	for i := int64(0); i < passes; i++ {
		resp, err := client.Get(url)
		if err != nil {
			return httpServeRow{}, err
		}
		n, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cerr != nil {
			return httpServeRow{}, cerr
		}
		if resp.StatusCode != http.StatusOK {
			return httpServeRow{}, fmt.Errorf("sendfile A/B status %d", resp.StatusCode)
		}
		served += n
	}
	wall := time.Since(t0)
	cpu := processCPUSeconds() - cpu0
	ps := s.ServePathStats()

	row := httpServeRow{
		BytesServed:    served,
		SendfileChunks: ps.SendfileChunks - warm.SendfileChunks,
		CopyChunks:     ps.CopyChunks - warm.CopyChunks,
	}
	if wall > 0 {
		row.BytesPerSec = float64(served) / wall.Seconds()
	}
	if served > 0 {
		row.CPUSecPerGB = cpu / (float64(served) / 1e9)
	}
	return row, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchedge:", err)
	os.Exit(1)
}
