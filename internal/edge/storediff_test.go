package edge

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/store"
)

// storeVariant names one (store backend, fill mode) combination the
// differential test drives.
type storeVariant struct {
	kind  string // mem, fs, slab
	async bool
}

func (v storeVariant) String() string {
	mode := "sync"
	if v.async {
		mode = "async"
	}
	return v.kind + "-" + mode
}

// newStoreVariantServer builds a sharded edge server over the given
// store backend and fill mode.
func newStoreVariantServer(t testing.TB, originURL, algo string, v storeVariant, diskChunks int, clock func() int64) *Server {
	t.Helper()
	var st store.Store
	switch v.kind {
	case "mem":
		st = store.NewMem()
	case "fs":
		fs, err := store.NewFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st = fs
	case "slab":
		sl, err := store.NewSlab(t.TempDir(), store.SlabConfig{SlotBytes: testK, SegmentSlots: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
		st = sl
	default:
		t.Fatalf("unknown store kind %q", v.kind)
	}
	s, err := NewServer(Config{
		Shards:         4,
		CacheFactory:   shardFactory(t, algo, 2),
		CacheConfig:    core.Config{ChunkSize: testK, DiskChunks: 2048},
		Store:          st,
		OriginURL:      originURL,
		RedirectURL:    "http://secondary.example",
		ChunkSize:      testK,
		Alpha:          2,
		Clock:          clock,
		AsyncFills:     v.async,
		FillQueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreBackendDifferential drives one deterministic trace through
// every (store backend × fill mode) combination and asserts each
// response — status and body — and the quiesced core stats are
// identical to the mem-sync baseline. The store layer moves bytes; it
// must never change a decision, a served byte, or the Eq. 2
// efficiency, whether writes are synchronous or deferred.
func TestStoreBackendDifferential(t *testing.T) {
	variants := []storeVariant{
		{kind: "mem", async: false}, // baseline first
		{kind: "fs", async: false},
		{kind: "fs", async: true},
		{kind: "slab", async: false},
		{kind: "slab", async: true},
	}
	for _, algo := range []string{"cafe", "xlru"} {
		t.Run(algo, func(t *testing.T) {
			catalog := MapCatalog{999: 5000 * testK} // wider than every disk: redirects everywhere
			for v := chunk.VideoID(1); v <= 32; v++ {
				catalog[v] = int64(2+v%5)*testK + int64(v%3)*100
			}
			o, err := NewOrigin(catalog, testK)
			if err != nil {
				t.Fatal(err)
			}
			origin := httptest.NewServer(o)
			defer origin.Close()

			var now atomic.Int64
			clock := now.Load
			servers := make([]*Server, len(variants))
			urls := make([]string, len(variants))
			for i, v := range variants {
				servers[i] = newStoreVariantServer(t, origin.URL, algo, v, 2048, clock)
				srv := httptest.NewServer(servers[i])
				defer srv.Close()
				urls[i] = srv.URL
			}

			client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			}}
			get := func(base string, v chunk.VideoID, start, end int64) (int, []byte) {
				resp, err := client.Get(fmt.Sprintf("%s/video?v=%d&start=%d&end=%d", base, v, start, end))
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, body
			}

			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 300; i++ {
				v := chunk.VideoID(1 + rng.Intn(32))
				size := catalog[v]
				start, end := int64(0), size-1
				if rng.Intn(2) == 0 { // one random whole chunk
					c := rng.Int63n((size + testK - 1) / testK)
					start = c * testK
					end = min((c+1)*testK, size) - 1
				}
				if i%50 == 49 {
					v, start, end = 999, 0, catalog[999]-1
				}
				if rng.Intn(4) == 0 {
					now.Add(int64(1 + rng.Intn(600)))
				}
				c0, b0 := get(urls[0], v, start, end)
				for j := 1; j < len(variants); j++ {
					cj, bj := get(urls[j], v, start, end)
					if cj != c0 {
						t.Fatalf("request %d (v=%d [%d,%d]): %s=%d %s=%d",
							i, v, start, end, variants[0], c0, variants[j], cj)
					}
					if string(bj) != string(b0) {
						t.Fatalf("request %d (v=%d [%d,%d]): %s and %s bodies differ (%d vs %d bytes)",
							i, v, start, end, variants[0], variants[j], len(b0), len(bj))
					}
				}
			}

			// Quiesce the async pipelines, then every core stat —
			// including the bit-exact Eq. 2 efficiency — must match the
			// baseline.
			for _, s := range servers {
				s.Flush()
			}
			base := servers[0].SnapshotStats()
			for j := 1; j < len(variants); j++ {
				got := servers[j].SnapshotStats()
				if got.Served != base.Served || got.Redirected != base.Redirected {
					t.Errorf("%s: served/redirected %d/%d, baseline %d/%d",
						variants[j], got.Served, got.Redirected, base.Served, base.Redirected)
				}
				if got.RequestedBytes != base.RequestedBytes ||
					got.FilledBytes != base.FilledBytes ||
					got.RedirectedBytes != base.RedirectedBytes {
					t.Errorf("%s: bytes req/fill/redir %d/%d/%d, baseline %d/%d/%d",
						variants[j], got.RequestedBytes, got.FilledBytes, got.RedirectedBytes,
						base.RequestedBytes, base.FilledBytes, base.RedirectedBytes)
				}
				if got.Efficiency != base.Efficiency {
					t.Errorf("%s: efficiency %v, baseline %v", variants[j], got.Efficiency, base.Efficiency)
				}
				if got.CachedChunks != base.CachedChunks {
					t.Errorf("%s: cached chunks %d, baseline %d", variants[j], got.CachedChunks, base.CachedChunks)
				}
				if got.FillErrors != 0 || got.DegradedRedirects != 0 || got.AsyncWriteErrors != 0 {
					t.Errorf("%s: errors on a healthy run: fill=%d degraded=%d asyncWrite=%d",
						variants[j], got.FillErrors, got.DegradedRedirects, got.AsyncWriteErrors)
				}
				if got.PendingFillWrites != 0 {
					t.Errorf("%s: %d pending writes after Flush", variants[j], got.PendingFillWrites)
				}
			}
		})
	}
}

// TestAsyncFillRollbackOnWriteFailure: when a deferred store write
// fails, the chunk's admission must be rolled back and its Filled
// charge reversed — the counters end up exactly where a synchronous
// write failure would have left them. The failing write is gated so
// the failure lands only after the response has streamed (from the
// pending write — read-your-writes on the serve path), making the
// accounting deterministic.
func TestAsyncFillRollbackOnWriteFailure(t *testing.T) {
	catalog := MapCatalog{1: 4 * testK}
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(o)
	defer origin.Close()

	failing := &failPutStore{
		Store:   store.NewMem(),
		failKey: (chunk.ID{Video: 1, Index: 2}).Key(),
		release: make(chan struct{}),
	}
	s, err := NewServer(Config{
		Shards:       1,
		CacheFactory: shardFactory(t, "cafe", 2),
		CacheConfig:  core.Config{ChunkSize: testK, DiskChunks: 64},
		Store:        failing,
		OriginURL:    origin.URL,
		RedirectURL:  "http://secondary.example",
		ChunkSize:    testK,
		Alpha:        2,
		Clock:        func() int64 { return 0 },
		AsyncFills:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	get := func() (int, []byte) {
		t.Helper()
		resp, err := client.Get(fmt.Sprintf("%s/video?v=1&start=0&end=%d", srv.URL, 4*testK-1))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	// The poisoned chunk's backing write is parked on the gate, so the
	// whole response streams — including chunk 2, straight from its
	// pending write — before anything fails.
	if code, body := get(); code != http.StatusOK || string(body) != string(expected(1, 0, 4*testK-1)) {
		t.Fatalf("first request: status %d, %d bytes", code, len(body))
	}
	close(failing.release) // now let the deferred write fail
	s.Flush()

	st := s.SnapshotStats()
	if st.AsyncWriteErrors != 1 {
		t.Fatalf("AsyncWriteErrors = %d, want 1", st.AsyncWriteErrors)
	}
	if st.FillErrors != 1 {
		t.Errorf("FillErrors = %d, want 1 (the lost write)", st.FillErrors)
	}
	// The lost write's Filled charge must have been reversed: the
	// counter equals exactly the bytes that really committed.
	committed := committedBytes(t, failing.Store)
	if committed != 3*testK {
		t.Fatalf("committed = %d bytes, want %d (three surviving chunks)", committed, 3*testK)
	}
	if st.FilledBytes != committed {
		t.Errorf("filled_bytes = %d, bytes actually committed = %d (rollback must reconcile)", st.FilledBytes, committed)
	}
	if failing.Store.Has(chunk.ID{Video: 1, Index: 2}) {
		t.Error("poisoned chunk present in backing store")
	}

	// Re-request: the admission was rolled back, so the chunk is
	// re-admitted, re-fetched, and this time (the store failure was
	// one-shot) commits. The pipeline converges with Eq. 2 exact.
	if code, body := get(); code != http.StatusOK || string(body) != string(expected(1, 0, 4*testK-1)) {
		t.Fatalf("second request: status %d, %d bytes", code, len(body))
	}
	s.Flush()
	st = s.SnapshotStats()
	if st.FilledBytes != 4*testK {
		t.Errorf("filled_bytes after recovery = %d, want %d", st.FilledBytes, 4*testK)
	}
	if got := committedBytes(t, failing.Store); got != 4*testK {
		t.Errorf("committed after recovery = %d, want %d", got, 4*testK)
	}
	if st.AsyncWriteErrors != 1 {
		t.Errorf("AsyncWriteErrors after recovery = %d, want 1", st.AsyncWriteErrors)
	}
}

func committedBytes(t *testing.T, s store.Store) int64 {
	t.Helper()
	var n int64
	for c := uint32(0); c < 4; c++ {
		id := chunk.ID{Video: 1, Index: c}
		if !s.Has(id) {
			continue
		}
		data, err := s.Get(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		n += int64(len(data))
	}
	return n
}

// failPutStore fails exactly one Put of one chunk, and holds that Put
// on the release gate so the test controls when the failure lands. It
// backs a WriteBehind, whose deferred writes reach it through Put
// only, so PutStream needs no override.
type failPutStore struct {
	store.Store
	failKey uint64
	release chan struct{}
	tripped atomic.Bool
}

func (s *failPutStore) Put(id chunk.ID, data []byte) error {
	if id.Key() == s.failKey && !s.tripped.Swap(true) {
		<-s.release
		return fmt.Errorf("injected store write failure for %s", id)
	}
	return s.Store.Put(id, data)
}
