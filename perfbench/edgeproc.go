package main

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/edge"
	"videocdn/internal/policy"
	"videocdn/internal/store"
)

// Headers the load generator sets on every request.
const (
	hdrRequestID = "X-Request-ID"
	hdrTraceTime = "X-Trace-Time"
)

// redirectBase is the edge's alternative location. The load generator
// never follows a 302, so it only has to be well-formed.
const redirectBase = "http://alternative.invalid"

// serve runs h on a loopback listener, announces its URL on stdout,
// and shuts down on SIGTERM.
func serve(h http.Handler, onStop func()) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("http://%s\n", ln.Addr())
	select {
	case <-sig:
	case err := <-errc:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = srv.Shutdown(ctx)
	<-errc
	if onStop != nil {
		onStop()
	}
	return err
}

// runOrigin is the `origin` role: edge.NewOrigin over a gob-encoded
// edge.MapCatalog.
func runOrigin(args []string) error {
	fs := flag.NewFlagSet("origin", flag.ContinueOnError)
	catPath := fs.String("catalog", "", "gob-encoded catalog")
	k := fs.Int64("chunk", 0, "chunk size in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*catPath)
	if err != nil {
		return err
	}
	var cat edge.MapCatalog
	err = gob.NewDecoder(f).Decode(&cat)
	f.Close()
	if err != nil {
		return fmt.Errorf("read catalog: %w", err)
	}
	o, err := edge.NewOrigin(cat, *k)
	if err != nil {
		return err
	}
	return serve(o, nil)
}

// edgeSnap is what GET /bench/snap returns: the edge's counters and
// the process's resource use, so the load generator can take deltas
// around a segment.
type edgeSnap struct {
	Stats    edge.Stats
	Path     edge.ServePathStats
	Usage    procUsage
	HeapPeak uint64 // peak heap object bytes since the last ?reset=1
}

// edgeHost is the edge-under-test process: an edge.Server over a slab
// store, an origin client, a trace-time clock fed from request
// headers, the null handler, and the benchmark's control endpoints.
type edgeHost struct {
	srv   *edge.Server
	rec   *recorder // nil when untraced
	clock atomic.Int64
	null  []byte
	heap  *heapSampler
}

func runEdge(args []string) error {
	fs := flag.NewFlagSet("edge", flag.ContinueOnError)
	k := fs.Int64("chunk", 0, "chunk size in bytes")
	disk := fs.Int("disk-chunks", 0, "disk size in chunks")
	originURL := fs.String("origin", "", "origin base URL")
	dir := fs.String("dir", "", "slab store directory")
	traced := fs.Bool("trace", false, "wrap policy, store, origin client and handler in span recorders")
	if err := fs.Parse(args); err != nil {
		return err
	}
	slab, err := store.NewSlab(*dir, store.SlabConfig{SlotBytes: *k})
	if err != nil {
		return err
	}
	h := &edgeHost{null: make([]byte, 256<<10)}
	var st store.Store = slab
	transport := &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}
	var rt http.RoundTripper = transport
	factory := func(_ int, cc core.Config) (core.Cache, error) {
		return policy.NewWithEnv("cafe", cc, policy.Env{Alpha: alphaF2R}, nil)
	}
	if *traced {
		h.rec = newRecorder(1 << 20)
		st = &tracedStore{inner: slab, rec: h.rec, k: *k}
		rt = &tracedTransport{inner: transport, rec: h.rec, k: *k}
		inner := factory
		factory = func(i int, cc core.Config) (core.Cache, error) {
			c, err := inner(i, cc)
			if err != nil {
				return nil, err
			}
			if _, ok := c.(forgetter); !ok {
				return nil, fmt.Errorf("policy %s cannot roll back fills", c.Name())
			}
			return &tracedCache{inner: c, rec: h.rec, live: true}, nil
		}
	}
	h.srv, err = edge.NewServer(edge.Config{
		CacheFactory: factory,
		CacheConfig:  core.Config{ChunkSize: *k, DiskChunks: *disk},
		Store:        st,
		OriginURL:    *originURL,
		RedirectURL:  redirectBase,
		ChunkSize:    *k,
		Alpha:        alphaF2R,
		Clock:        h.clock.Load,
		Client:       &http.Client{Transport: rt, Timeout: 30 * time.Second},
	})
	if err != nil {
		return err
	}
	h.heap = startHeapSampler()
	err = serve(h, func() {
		h.heap.close()
		h.srv.Close()
		slab.Close()
	})
	return err
}

func (h *edgeHost) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/video":
		h.video(w, r)
	case "/null":
		n, _ := strconv.ParseInt(r.URL.Query().Get("n"), 10, 64)
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
		for n > 0 {
			b := h.null
			if int64(len(b)) > n {
				b = b[:n]
			}
			if _, err := w.Write(b); err != nil {
				return
			}
			n -= int64(len(b))
		}
	case "/bench/snap":
		h.snap(w, r)
	case "/bench/trace":
		h.traceCtl(w, r)
	default:
		h.srv.ServeHTTP(w, r)
	}
}

// video feeds the request's trace time into the edge clock, then hands
// the request to the edge (inside a handler span when traced).
func (h *edgeHost) video(w http.ResponseWriter, r *http.Request) {
	if t, err := strconv.ParseInt(r.Header.Get(hdrTraceTime), 10, 64); err == nil {
		for {
			cur := h.clock.Load()
			if t <= cur || h.clock.CompareAndSwap(cur, t) {
				break
			}
		}
	}
	if h.rec == nil {
		h.srv.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseUint(r.Header.Get(hdrRequestID), 10, 64)
	v, _ := strconv.ParseUint(r.URL.Query().Get("v"), 10, 64)
	var b0, b1 int64
	fmt.Sscanf(r.Header.Get("Range"), "bytes=%d-%d", &b0, &b1)
	in := h.rec.beginRequest(id, chunk.VideoID(v), b0, b1)
	h.srv.ServeHTTP(w, r)
	h.rec.endRequest(chunk.VideoID(v), in)
}

func (h *edgeHost) snap(w http.ResponseWriter, r *http.Request) {
	out := edgeSnap{Stats: h.srv.SnapshotStats(), Path: h.srv.ServePathStats(), Usage: readUsage(), HeapPeak: h.heap.peak.Load()}
	if r.URL.Query().Get("reset") == "1" {
		h.heap.peak.Store(0)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// traceCtl: ?dump=<path> writes the spans recorded so far out; then
// ?reset=1 drops them.
func (h *edgeHost) traceCtl(w http.ResponseWriter, r *http.Request) {
	if h.rec == nil {
		http.Error(w, "edge is not traced", http.StatusConflict)
		return
	}
	q := r.URL.Query()
	if p := q.Get("dump"); p != "" {
		if err := h.rec.dump(p); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if q.Get("reset") == "1" {
		h.rec.reset()
	}
	fmt.Fprintln(w, "ok")
}
