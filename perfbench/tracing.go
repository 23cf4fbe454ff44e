package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/store"
	"videocdn/internal/trace"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kHandler      spanKind = iota // edge.Server.ServeHTTP, one per HTTP request
	kDecide                       // core.Cache.HandleRequest
	kStoreGet                     // store.Store.Get
	kStoreBorrow                  // store.BorrowGetter.GetBorrow
	kStoreSection                 // store.SectionGetter.GetSection
	kStoreHas                     // store.Store.Has
	kStorePut                     // store.Store.Put / StreamPutter.PutStream
	kStoreDelete                  // store.Store.Delete
	kOriginChunk                  // origin round trip for /chunk, through body EOF/close
	kOriginSize                   // origin round trip for /size
	kTraceRead                    // trace.Cursor.Next in the replay engine
	numKinds
)

// span is one timed call across a layer boundary. Req is the request
// that caused it (the load generator's X-Request-ID, or the replay
// sequence number); Parent is the index of that request's handler
// span, -1 when there is none (replay) or no request could be found
// (then Unlinked is set).
type span struct {
	Kind     spanKind
	Err      bool  // the call returned an error (decide: the request was redirected)
	Unlinked bool  // no causing request could be found
	Parent   int32 // index of the causing request's handler span
	A, B     int32 // decide: filled and evicted chunks
	Req      uint64
	Start    int64 // ns since the recorder's base
	End      int64
}

// owner is the request a chunk's fill or eviction belongs to, so work
// done on the edge's detached fill goroutines can be linked back.
type owner struct {
	req    uint64
	parent int32
}

// inflight is a request inside the edge handler.
type inflight struct {
	req     uint64
	b0, b1  int64
	slot    int32 // its handler span
	decided bool
}

// recorder keeps spans in memory; dump writes them out at the end of
// a run.
type recorder struct {
	base time.Time

	mu       sync.Mutex
	spans    []span
	inflight map[chunk.VideoID][]*inflight
	filled   map[uint64]owner // chunk key → request whose decision admitted it
	evicted  map[uint64]owner // chunk key → request whose decision evicted it
	seq      uint64           // replay: the sequence number of the request being decided
}

func newRecorder(capacity int) *recorder {
	return &recorder{
		base:     time.Now(),
		spans:    make([]span, 0, capacity),
		inflight: make(map[chunk.VideoID][]*inflight),
		filled:   make(map[uint64]owner),
		evicted:  make(map[uint64]owner),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// reset drops everything recorded so far (set-up traffic). Call it
// only while no request is in flight.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.filled = make(map[uint64]owner)
	r.evicted = make(map[uint64]owner)
	r.mu.Unlock()
}

// beginRequest opens a handler span and registers the request as in
// flight for linking.
func (r *recorder) beginRequest(req uint64, v chunk.VideoID, b0, b1 int64) *inflight {
	r.mu.Lock()
	r.spans = append(r.spans, span{Kind: kHandler, Req: req, Parent: -1, Start: r.now()})
	in := &inflight{req: req, b0: b0, b1: b1, slot: int32(len(r.spans) - 1)}
	r.inflight[v] = append(r.inflight[v], in)
	r.mu.Unlock()
	return in
}

func (r *recorder) endRequest(v chunk.VideoID, in *inflight) {
	r.mu.Lock()
	r.spans[in.slot].End = r.now()
	list := r.inflight[v]
	for i, x := range list {
		if x == in {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(r.inflight, v)
	} else {
		r.inflight[v] = list
	}
	r.mu.Unlock()
}

// ownerOf finds the request behind a chunk span. Caller holds r.mu.
// Deletes belong to the decision that evicted the chunk (or, for the
// edge's clean-up of an unwanted fill, to the one that admitted it);
// fill work to the decision that admitted it; everything else to an
// in-flight request of the chunk's video, preferably one whose range
// covers the chunk (size lookups carry no chunk).
func (r *recorder) ownerOf(kind spanKind, id chunk.ID, k int64) (owner, bool) {
	key := id.Key()
	switch kind {
	case kStoreDelete:
		if o, ok := r.evicted[key]; ok {
			return o, true
		}
		if o, ok := r.filled[key]; ok {
			return o, true
		}
	case kStorePut, kOriginChunk:
		if o, ok := r.filled[key]; ok {
			return o, true
		}
	}
	list := r.inflight[id.Video]
	for _, in := range list {
		if uint32(in.b0/k) <= id.Index && id.Index <= uint32(in.b1/k) {
			return owner{in.req, in.slot}, true
		}
	}
	if len(list) > 0 {
		return owner{list[0].req, list[0].slot}, true
	}
	return owner{parent: -1}, false
}

// chunkSpan records a store or origin span for chunk id that started
// at start and ends now.
func (r *recorder) chunkSpan(kind spanKind, id chunk.ID, k int64, start int64, err bool) {
	end := r.now()
	r.mu.Lock()
	o, ok := r.ownerOf(kind, id, k)
	r.spans = append(r.spans, span{Kind: kind, Req: o.req, Parent: o.parent, Start: start, End: end, Err: err, Unlinked: !ok})
	r.mu.Unlock()
}

// dump writes the spans to path as fixed-size little-endian records.
func (r *recorder) dump(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := binary.Write(f, binary.LittleEndian, r.spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func loadSpans(path string) ([]span, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spans := make([]span, fi.Size()/int64(binary.Size(span{})))
	if err := binary.Read(f, binary.LittleEndian, spans); err != nil {
		return nil, fmt.Errorf("read spans: %w", err)
	}
	return spans, nil
}

// ---------- policy ----------

// tracedCache times HandleRequest. It forwards Forget, the optional
// capability edge.Server uses to roll back failed fills; the benchmark
// wraps only policies that have it (Cafe).
type tracedCache struct {
	inner core.Cache
	rec   *recorder
	// live: link decisions to in-flight HTTP requests by video and
	// range; otherwise the request is rec.seq (replay).
	live bool
}

type forgetter interface{ Forget(id chunk.ID) }

func (c *tracedCache) HandleRequest(req trace.Request) core.Outcome {
	start := c.rec.now()
	out := c.inner.HandleRequest(req)
	end := c.rec.now()
	s := span{Kind: kDecide, Start: start, End: end, Parent: -1, Err: out.Decision == core.Redirect,
		A: int32(out.FilledChunks), B: int32(out.EvictedChunks)}
	r := c.rec
	r.mu.Lock()
	if c.live {
		s.Unlinked = true
		for _, in := range r.inflight[req.Video] {
			if !in.decided && in.b0 == req.Start && in.b1 == req.End {
				in.decided = true
				s.Req, s.Parent, s.Unlinked = in.req, in.slot, false
				break
			}
		}
		o := owner{s.Req, s.Parent}
		for _, id := range out.FilledIDs {
			r.filled[id.Key()] = o
		}
		for _, id := range out.EvictedIDs {
			r.evicted[id.Key()] = o
		}
	} else {
		s.Req = r.seq
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return out
}

func (c *tracedCache) Contains(id chunk.ID) bool { return c.inner.Contains(id) }
func (c *tracedCache) Len() int                  { return c.inner.Len() }
func (c *tracedCache) Name() string              { return c.inner.Name() }
func (c *tracedCache) Forget(id chunk.ID)        { c.inner.(forgetter).Forget(id) }

// ---------- store ----------

// fullStore is the store the edge benchmarks wrap: every optional
// capability edge.NewServer probes for. store.Slab has all of them.
type fullStore interface {
	store.Store
	store.BorrowGetter
	store.SectionGetter
	store.StreamPutter
}

// tracedStore times every store call. It exposes exactly the optional
// interfaces of fullStore, so the edge picks the same serve and fill
// paths as it does with the bare store.
type tracedStore struct {
	inner fullStore
	rec   *recorder
	k     int64
}

func (s *tracedStore) Put(id chunk.ID, data []byte) error {
	t := s.rec.now()
	err := s.inner.Put(id, data)
	s.rec.chunkSpan(kStorePut, id, s.k, t, err != nil)
	return err
}

func (s *tracedStore) Get(id chunk.ID, buf []byte) ([]byte, error) {
	t := s.rec.now()
	b, err := s.inner.Get(id, buf)
	s.rec.chunkSpan(kStoreGet, id, s.k, t, err != nil)
	return b, err
}

func (s *tracedStore) Delete(id chunk.ID) error {
	t := s.rec.now()
	err := s.inner.Delete(id)
	s.rec.chunkSpan(kStoreDelete, id, s.k, t, err != nil)
	return err
}

func (s *tracedStore) Has(id chunk.ID) bool {
	t := s.rec.now()
	ok := s.inner.Has(id)
	s.rec.chunkSpan(kStoreHas, id, s.k, t, false)
	return ok
}

func (s *tracedStore) Len() int { return s.inner.Len() }

func (s *tracedStore) GetBorrow(id chunk.ID) (store.Borrowed, error) {
	t := s.rec.now()
	b, err := s.inner.GetBorrow(id)
	// ErrNoBorrow is the documented "use another path" answer of a
	// store without mmap, not a failure.
	s.rec.chunkSpan(kStoreBorrow, id, s.k, t, err != nil && err != store.ErrNoBorrow)
	return b, err
}

func (s *tracedStore) GetSection(id chunk.ID) (store.Section, error) {
	t := s.rec.now()
	sec, err := s.inner.GetSection(id)
	s.rec.chunkSpan(kStoreSection, id, s.k, t, err != nil)
	return sec, err
}

func (s *tracedStore) PutStream(id chunk.ID, r io.Reader, max int64, scratch []byte) (int64, error) {
	t := s.rec.now()
	n, err := s.inner.PutStream(id, r, max, scratch)
	s.rec.chunkSpan(kStorePut, id, s.k, t, err != nil)
	return n, err
}

// ---------- origin ----------

// tracedTransport times origin round trips up to the end of the body.
type tracedTransport struct {
	inner http.RoundTripper
	rec   *recorder
	k     int64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := t.rec.now()
	resp, err := t.inner.RoundTrip(req)
	q := req.URL.Query()
	v, _ := strconv.ParseUint(q.Get("v"), 10, 64)
	kind := kOriginSize
	id := chunk.ID{Video: chunk.VideoID(v)}
	if c := q.Get("c"); c != "" {
		kind = kOriginChunk
		ci, _ := strconv.ParseUint(c, 10, 32)
		id.Index = uint32(ci)
	}
	if err != nil {
		t.rec.chunkSpan(kind, id, t.k, start, true)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: t, kind: kind, id: id, start: start,
		failed: resp.StatusCode != http.StatusOK}
	return resp, nil
}

// tracedBody ends its round trip's span at EOF, a read error or Close,
// whichever comes first.
type tracedBody struct {
	io.ReadCloser
	t      *tracedTransport
	kind   spanKind
	id     chunk.ID
	start  int64
	failed bool
	once   sync.Once
}

func (b *tracedBody) finish(err bool) {
	b.once.Do(func() { b.t.rec.chunkSpan(b.kind, b.id, b.t.k, b.start, err || b.failed) })
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish(err != io.EOF)
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish(false)
	return b.ReadCloser.Close()
}

// ---------- replay source ----------

// tracedSource wraps a columnar trace directory so each Next is timed.
// With rec set, each Next is a span and the policy wrapper learns the
// sequence number of the request it decides; with gaps set instead,
// only the time between successive Nexts is kept, one request's trip
// through the engine. It overrides both cursor entry points of
// trace.Dir, so sim.Replay takes the same SequentialCursor path as with
// the bare Dir.
type tracedSource struct {
	*trace.Dir
	rec  *recorder
	gaps *[]float64 // ms
}

func (s tracedSource) Cursor(shard int) (trace.Cursor, error) {
	return s.wrap(s.Dir.Cursor(shard))
}

func (s tracedSource) SequentialCursor() (trace.Cursor, error) {
	return s.wrap(s.Dir.SequentialCursor())
}

func (s tracedSource) wrap(c trace.Cursor, err error) (trace.Cursor, error) {
	if err != nil {
		return nil, err
	}
	return &tracedCursor{Cursor: c, rec: s.rec, gaps: s.gaps}, nil
}

type tracedCursor struct {
	trace.Cursor
	rec  *recorder
	seq  uint64
	gaps *[]float64
	last time.Time
}

func (c *tracedCursor) Next(req *trace.Request) (bool, error) {
	if c.gaps != nil {
		now := time.Now()
		if !c.last.IsZero() {
			*c.gaps = append(*c.gaps, float64(now.Sub(c.last))/1e6)
		}
		c.last = now
		return c.Cursor.Next(req)
	}
	start := c.rec.now()
	ok, err := c.Cursor.Next(req)
	if ok {
		c.seq++
		c.rec.mu.Lock()
		c.rec.seq = c.seq
		c.rec.spans = append(c.rec.spans, span{Kind: kTraceRead, Req: c.seq, Parent: -1, Start: start, End: c.rec.now()})
		c.rec.mu.Unlock()
	}
	return ok, err
}
