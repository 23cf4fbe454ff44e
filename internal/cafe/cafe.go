// Package cafe implements the paper's Cafe Cache (Section 6): a
// Chunk-Aware, Fill-Efficient video cache.
//
// Where xLRU gates admission with a file-level recency test, Cafe
// compares the expected cost of serving against the expected cost of
// redirecting each request, using per-chunk inter-arrival times (IATs)
// tracked as exponentially weighted moving averages (Eq. 8, gamma =
// 0.25 in the paper's experiments):
//
//	E[Cost_serve]    = |S'|·C_F + Σ_{x∈S''} (T/IAT_x)·min(C_F,C_R)   (Eq. 6)
//	E[Cost_redirect] = |S|·C_R  + Σ_{x∈S'}  (T/IAT_x)·min(C_F,C_R)   (Eq. 7)
//
// with S the requested chunks, S' ⊆ S the missing ones, S” the
// eviction victims should we fill, and T the future window (the cache
// age). The request is served iff serving is strictly cheaper —
// breaking ties toward redirect is what keeps never-before-seen files
// out of the cache for every alpha, as Section 9.2 observes.
//
// # Ordering chunks by popularity (Theorem 1)
//
// Cafe keeps cached chunks in an ordered tree so the least popular
// (largest IAT) chunks can be found in O(log n). The paper keys chunk x
// at insertion time t with the virtual timestamp key_x(t) = t −
// IAT_x(t). Expanding Eq. 8,
//
//	key_x(t) = (1−γ)·t + [γ·t_x − (1−γ)·dt_x],
//
// the time-dependent part (1−γ)·t is common to all chunks, so pairwise
// order depends only on the bracketed chunk-specific part — that is
// Theorem 1. We therefore store the time-invariant part
//
//	k_x = γ·t_x − (1−γ)·dt_x
//
// directly as the tree key (equivalent to evaluating every key at the
// same fixed reference T0 = 0, which the theorem requires; storing keys
// evaluated at each chunk's own insertion time would *not* preserve
// pairwise order). A handy identity: t − key_x(t) = IAT_x(t), so the
// cache age T is simply the IAT of the minimum-key (least popular)
// cached chunk evaluated at t_now.
//
// # Unseen chunks
//
// A requested chunk never seen before, belonging to a video with
// cached chunks, gets its IAT estimated as the largest IAT among the
// video's cached chunks (the package keeps a per-video index of cached
// chunks for this). A chunk with no information at all contributes no
// expected future cost.
package cafe

import (
	"math"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/ordtree"
	"videocdn/internal/trace"
)

// DefaultGamma is the EWMA factor used in the paper's experiments.
const DefaultGamma = 0.25

// cleanupInterval controls how often (in requests) stale IAT history is
// pruned.
const cleanupInterval = 8192

// unknownDT marks an IAT entry whose smoothed inter-arrival time has
// not been observed yet (only one request seen).
const unknownDT = -1

// absentDT marks, in the per-request scratch only, a chunk that has no
// IAT entry at all (never seen, or pruned).
const absentDT = -2

// iatEntry is the per-chunk popularity state of Eq. 8 plus the chunk's
// place on disk. The time is an int32 offset so the entry stays 16
// bytes: the table holds the whole recent request history, far more
// entries than the disk holds chunks.
type iatEntry struct {
	dt float64 // smoothed inter-arrival time; unknownDT if unseen
	t  int32   // last access time t_x, in seconds since firstTime
	// node is the chunk's handle in the ordered set, ordtree.Nil while
	// it is not on disk. The file-level ablation shares one entry per
	// video, so there the chunks' handles live in the videos index and
	// node stays Nil.
	node ordtree.Node
}

// Options tune Cafe beyond the shared core.Config.
type Options struct {
	// Gamma is the EWMA weight of Eq. 8. Defaults to DefaultGamma.
	Gamma float64
	// FileLevel degrades popularity tracking to one IAT per video
	// (all chunks of a video share it); the disk itself remains
	// chunk-granular. This is an ablation switch used to quantify the
	// value of chunk-aware tracking; production use leaves it false.
	FileLevel bool
	// NoVideoEstimate disables the unseen-chunk IAT estimation from
	// the video's cached chunks. Ablation switch.
	NoVideoEstimate bool
	// WindowScale scales the future window T relative to the cache
	// age. Defaults to 1 (the paper's choice: T = cache age).
	WindowScale float64
}

// Cache is the Cafe video cache. Not safe for concurrent use.
type Cache struct {
	cfg   core.Config
	alpha float64
	cf    float64
	cr    float64
	minFR float64
	opt   Options

	iat    map[uint64]iatEntry // iatKey -> popularity state and disk node
	tree   ordtree.Arena       // cached chunks (packed chunk keys), keyed by k_x
	videos map[chunk.VideoID]map[uint32]ordtree.Node

	firstTime int64
	started   bool
	lastTime  int64
	requests  int64

	fillGate func(chunks int, now int64) bool

	// reqBuf holds the IAT entries of the request being served and
	// victimsBuf its eviction candidates; both are reused on every
	// request and never escape HandleRequest. missingBuf and
	// evictedBuf back Outcome.FilledIDs/EvictedIDs when the caller
	// opted into core.Config.ReuseOutcomeBuffers. setPool recycles the
	// per-video chunk-index sets freed by full eviction.
	reqBuf     []iatEntry
	victimsBuf []ordtree.Node
	missingBuf []chunk.ID
	evictedBuf []chunk.ID
	setPool    []map[uint32]ordtree.Node
}

// SetFillGate installs an optional admission throttle consulted before
// any cache fill: if the gate refuses the fill volume, the request is
// redirected instead (popularity tracking still sees it). This models
// the disk-write constraint of Section 2 — ingress writes compete with
// cache-hit reads — and is typically wired to a writelimit.Budget.
// Pass nil to remove the gate.
func (c *Cache) SetFillGate(gate func(chunks int, now int64) bool) { c.fillGate = gate }

// New builds a Cafe cache for the given fill-to-redirect preference
// alpha_F2R.
func New(cfg core.Config, alpha float64, opt Options) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := core.CheckAlpha(alpha); err != nil {
		return nil, err
	}
	if opt.Gamma == 0 {
		opt.Gamma = DefaultGamma
	}
	if !(opt.Gamma > 0 && opt.Gamma <= 1) {
		return nil, core.ErrBadGamma
	}
	if opt.WindowScale == 0 {
		opt.WindowScale = 1
	}
	if !(opt.WindowScale > 0 && opt.WindowScale <= math.MaxFloat64) {
		return nil, core.ErrBadWindow
	}
	c := &Cache{
		cfg:    cfg,
		opt:    opt,
		iat:    make(map[uint64]iatEntry),
		videos: make(map[chunk.VideoID]map[uint32]ordtree.Node),
	}
	c.setCosts(alpha)
	return c, nil
}

// setCosts derives the Eq. 2 cost constants from alpha.
func (c *Cache) setCosts(alpha float64) {
	c.alpha = alpha
	c.cf = 2 * alpha / (alpha + 1)
	c.cr = 2 / (alpha + 1)
	c.minFR = math.Min(c.cf, c.cr)
}

// Name implements core.Cache.
func (c *Cache) Name() string { return "cafe" }

// Alpha returns the current alpha_F2R.
func (c *Cache) Alpha() float64 { return c.alpha }

// SetAlpha retunes the fill-to-redirect preference at runtime. The
// paper cautions against wide swings (cache pollution and churn) but
// explicitly allows "a small range through a control loop for better
// responsiveness" (Section 10); internal/alphactl builds that loop.
// Only the cost constants change — popularity state and tree keys are
// alpha-independent, so the switch is O(1).
func (c *Cache) SetAlpha(alpha float64) error {
	if err := core.CheckAlpha(alpha); err != nil {
		return err
	}
	c.setCosts(alpha)
	return nil
}

// Len implements core.Cache.
func (c *Cache) Len() int { return c.tree.Len() }

// Contains implements core.Cache.
func (c *Cache) Contains(id chunk.ID) bool { return c.nodeOf(id) != ordtree.Nil }

// nodeOf returns the chunk's handle in the ordered set, ordtree.Nil
// when it is not on disk.
func (c *Cache) nodeOf(id chunk.ID) ordtree.Node {
	if c.opt.FileLevel {
		return c.videos[id.Video][id.Index]
	}
	return c.iat[id.Key()].node
}

// iatKey maps a chunk to its popularity-tracking key. In the
// file-level ablation all chunks of a video share one entry.
func (c *Cache) iatKey(id chunk.ID) uint64 {
	if c.opt.FileLevel {
		return chunk.ID{Video: id.Video, Index: 0}.Key()
	}
	return id.Key()
}

// entry returns the IAT entry stored under k, or one marked absentDT.
func (c *Cache) entry(k uint64) iatEntry {
	if e, ok := c.iat[k]; ok {
		return e
	}
	return iatEntry{dt: absentDT}
}

// lastSeen returns the entry's last access time t_x.
func (c *Cache) lastSeen(e iatEntry) int64 { return c.firstTime + int64(e.t) }

// offset converts a request time to an entry's int32 time offset. The
// callers guarantee now - firstTime <= math.MaxInt32.
func (c *Cache) offset(now int64) int32 { return int32(now - c.firstTime) }

// iatAt evaluates Eq. 8 at time now for the given entry.
func (c *Cache) iatAt(e iatEntry, now int64) float64 {
	g := c.opt.Gamma
	return g*float64(now-c.lastSeen(e)) + (1-g)*e.dt
}

// CacheAge returns the window T: the IAT of the least popular cached
// chunk at time now (see the package comment for why this equals the
// virtual cache age t − key_min(t)). Zero when the disk is empty.
func (c *Cache) CacheAge(now int64) float64 {
	x := c.tree.Min()
	if x == ordtree.Nil {
		return 0
	}
	e, ok := c.iat[c.iatKey(chunk.FromKey(c.tree.ID(x)))]
	if !ok || e.dt == unknownDT {
		// Every cached chunk is given a concrete dt at fill time;
		// reaching this would mean corrupted bookkeeping.
		panic("cafe: cached chunk without IAT state")
	}
	return c.iatAt(e, now)
}

// treeKey is the time-invariant ordering key k_x = γ·t_x − (1−γ)·dt_x.
func (c *Cache) treeKey(e iatEntry) float64 {
	g := c.opt.Gamma
	return g*float64(c.lastSeen(e)) - (1-g)*e.dt
}

// futureCost returns (T/IAT_x)·min(C_F, C_R) — the expected cost of the
// near-future requests for a chunk with IAT state e (Eqs. 6-7).
func (c *Cache) futureCost(e iatEntry, now int64, window float64) float64 {
	iat := c.iatAt(e, now)
	if iat < 1 {
		iat = 1
	}
	return window / iat * c.minFR
}

// HandleRequest implements core.Cache. Each requested chunk's IAT
// entry is read once into c.reqBuf, which carries its disk node too,
// and written back once at the end.
func (c *Cache) HandleRequest(r trace.Request) core.Outcome {
	now := r.Time
	if c.started && now < c.lastTime {
		panic("cafe: requests must arrive in non-decreasing time order")
	}
	if !c.started {
		c.firstTime = now
		c.started = true
	}
	if now-c.firstTime > math.MaxInt32 {
		panic("cafe: request more than 2^31 s after the first one")
	}
	c.lastTime = now
	c.requests++
	if c.requests%cleanupInterval == 0 {
		c.cleanup(now)
	}

	c0, c1 := r.ChunkRange(c.cfg.ChunkSize)
	nChunks := int(c1-c0) + 1
	if nChunks > c.cfg.DiskChunks {
		// Record the arrival chunk by chunk: the range may be far wider
		// than any scratch buffer should grow.
		for ci := c0; ci <= c1; ci++ {
			k := c.iatKey(chunk.ID{Video: r.Video, Index: ci})
			c.iat[k] = c.seen(c.entry(k), now)
			if c.opt.FileLevel {
				break
			}
		}
		return core.Outcome{Decision: core.Redirect}
	}

	// Partition S into cached and missing (S'). The requested chunks
	// that must never be evicted are exactly the packed-key range
	// [loKey, hiKey] (chunk keys of one video are contiguous), so no
	// per-request skip set is needed.
	s := c.lookup(r.Video, c0, c1)
	nMissing := 0
	for i := range s {
		if s[i].node == ordtree.Nil {
			nMissing++
		}
	}
	loKey := chunk.ID{Video: r.Video, Index: c0}.Key()
	hiKey := chunk.ID{Video: r.Video, Index: c1}.Key()

	serve := false
	var victims []ordtree.Node
	free := c.cfg.DiskChunks - c.tree.Len()
	needEvict := nMissing - free
	if needEvict < 0 {
		needEvict = 0
	}

	switch {
	case nMissing == 0:
		// Full hit: nothing to fill, serving is free.
		serve = true
	case free >= nMissing:
		// Warmup: free space makes filling unconditionally worthwhile
		// (there is nothing to evict and no cache age to compare to).
		serve = true
	default:
		victims = c.tree.AppendSmallestExcludingRange(c.victimsBuf[:0], needEvict, loKey, hiKey)
		c.victimsBuf = victims
		if len(victims) < needEvict {
			// Cannot make room without evicting the request's own
			// chunks: redirect.
			serve = false
			break
		}
		window := c.CacheAge(now) * c.opt.WindowScale
		costServe := float64(nMissing) * c.cf
		for _, x := range victims {
			e, ok := c.iat[c.iatKey(chunk.FromKey(c.tree.ID(x)))]
			if !ok {
				panic("cafe: eviction candidate without IAT state")
			}
			costServe += c.futureCost(e, now, window)
		}
		costRedirect := float64(nChunks) * c.cr
		videoEst, videoEstOK := c.videoEstimate(r.Video, now)
		for _, e := range s {
			if e.node != ordtree.Nil {
				continue
			}
			switch {
			case e.dt == unknownDT:
				// Seen exactly once: bootstrap the IAT from the raw
				// gap, exactly as the Eq. 8 update will on the next
				// observation.
				costRedirect += c.futureCost(iatEntry{dt: float64(now - c.lastSeen(e)), t: c.offset(now)}, now, window)
			case e.dt != absentDT:
				costRedirect += c.futureCost(e, now, window)
			case videoEstOK:
				costRedirect += c.futureCost(iatEntry{dt: videoEst, t: c.offset(now)}, now, window)
			}
			// No information at all: no expected future cost.
		}
		serve = costServe < costRedirect
	}

	// The disk-write budget can veto a fill-bearing serve (Section 2's
	// write-vs-read contention); pure hits pass untouched.
	if serve && nMissing > 0 && c.fillGate != nil && !c.fillGate(nMissing, now) {
		serve = false
		victims = nil
	}

	// Record this arrival in the popularity state (always, including
	// redirects — popularity is built from the full request stream).
	c.observe(s, now)

	if !serve {
		// Cached chunks of S changed popularity; re-key them.
		if c.opt.FileLevel {
			c.rekeyVideo(r.Video, s[0])
		} else {
			for _, e := range s {
				if e.node != ordtree.Nil {
					c.tree.Rekey(e.node, c.treeKey(e))
				}
			}
		}
		c.store(r.Video, c0, s)
		return core.Outcome{Decision: core.Redirect}
	}

	// Evict the victims (keep their IAT history; they may return).
	var evicted []chunk.ID
	if c.cfg.ReuseOutcomeBuffers {
		evicted = c.evictedBuf[:0]
	} else {
		evicted = make([]chunk.ID, 0, len(victims))
	}
	for _, x := range victims {
		evicted = append(evicted, c.evict(x))
	}
	if c.cfg.ReuseOutcomeBuffers {
		c.evictedBuf = evicted
	}
	// Fill missing chunks and re-key every requested chunk.
	var filled []chunk.ID
	switch {
	case c.cfg.ReuseOutcomeBuffers:
		filled = c.missingBuf[:0]
	case nMissing > 0:
		filled = make([]chunk.ID, 0, nMissing)
	}
	set := c.videoSet(r.Video)
	for i := range s {
		e := &s[i]
		if e.dt == unknownDT {
			// First fill of a never-repeated chunk (warmup or
			// whole-request admission): the honest IAT guess for
			// something seen once is the elapsed trace time.
			e.dt = math.Max(float64(now-c.firstTime), 1)
		}
		id := chunk.ID{Video: r.Video, Index: c0 + uint32(i)}
		if e.node == ordtree.Nil {
			e.node = c.tree.Insert(id.Key(), c.treeKey(*e))
			set[id.Index] = e.node
			filled = append(filled, id)
		} else {
			c.tree.Rekey(e.node, c.treeKey(*e))
		}
	}
	if c.cfg.ReuseOutcomeBuffers {
		c.missingBuf = filled
	}
	if c.opt.FileLevel {
		// All cached chunks of the video share the updated entry;
		// keep their tree keys consistent with it.
		c.rekeyVideo(r.Video, s[0])
	}
	c.store(r.Video, c0, s)
	return core.Outcome{
		Decision:      core.Serve,
		FilledChunks:  nMissing,
		FilledBytes:   int64(nMissing) * c.cfg.ChunkSize,
		EvictedChunks: len(evicted),
		FilledIDs:     filled,
		EvictedIDs:    evicted,
	}
}

// lookup reads the IAT entries of chunks c0..c1 of v into the request
// scratch, one table access per chunk. In the file-level ablation each
// slot holds a copy of the video's shared entry, carrying its own
// chunk's node from the videos index.
func (c *Cache) lookup(v chunk.VideoID, c0, c1 uint32) []iatEntry {
	s := c.reqBuf[:0]
	if c.opt.FileLevel {
		e := c.entry(chunk.ID{Video: v}.Key())
		set := c.videos[v]
		for ci := c0; ci <= c1; ci++ {
			e.node = set[ci]
			s = append(s, e)
		}
	} else {
		for ci := c0; ci <= c1; ci++ {
			s = append(s, c.entry(chunk.ID{Video: v, Index: ci}.Key()))
		}
	}
	c.reqBuf = s
	return s
}

// store writes the request scratch back to the IAT table, one write
// per entry (one per video in the file-level ablation).
func (c *Cache) store(v chunk.VideoID, c0 uint32, s []iatEntry) {
	if c.opt.FileLevel {
		e := s[0]
		e.node = ordtree.Nil
		c.iat[chunk.ID{Video: v}.Key()] = e
		return
	}
	for i, e := range s {
		c.iat[chunk.ID{Video: v, Index: c0 + uint32(i)}.Key()] = e
	}
}

// observe applies the Eq. 8 EWMA update to every entry of the request
// scratch (once per video in the file-level ablation).
func (c *Cache) observe(s []iatEntry, now int64) {
	if c.opt.FileLevel {
		e := c.seen(s[0], now)
		for i := range s {
			s[i].dt, s[i].t = e.dt, e.t
		}
		return
	}
	for i := range s {
		s[i] = c.seen(s[i], now)
	}
}

// seen returns e updated by one arrival at now (Eq. 8); the node is
// kept.
func (c *Cache) seen(e iatEntry, now int64) iatEntry {
	switch e.dt {
	case absentDT:
		e.dt = unknownDT
	case unknownDT:
		// Second observation bootstraps dt from the raw gap.
		e.dt = float64(now - c.lastSeen(e))
	default:
		g := c.opt.Gamma
		e.dt = g*float64(now-c.lastSeen(e)) + (1-g)*e.dt
	}
	e.t = c.offset(now)
	return e
}

// videoEstimate returns the largest IAT among the video's cached
// chunks, the estimator for unvisited chunks of a partially cached
// video (end of Section 6).
func (c *Cache) videoEstimate(v chunk.VideoID, now int64) (float64, bool) {
	if c.opt.NoVideoEstimate {
		return 0, false
	}
	set := c.videos[v]
	if len(set) == 0 {
		return 0, false
	}
	maxIAT := 0.0
	found := false
	for ci := range set {
		e, ok := c.iat[c.iatKey(chunk.ID{Video: v, Index: ci})]
		if !ok || e.dt == unknownDT {
			continue
		}
		if iat := c.iatAt(e, now); !found || iat > maxIAT {
			maxIAT = iat
			found = true
		}
		if c.opt.FileLevel {
			break // all chunks share one entry
		}
	}
	return maxIAT, found
}

// rekeyVideo refreshes the tree keys of every cached chunk of v from
// the video's shared, file-level IAT entry e.
func (c *Cache) rekeyVideo(v chunk.VideoID, e iatEntry) {
	key := c.treeKey(e)
	for _, x := range c.videos[v] {
		c.tree.Rekey(x, key)
	}
}

// videoSet returns v's cached-chunk index, creating it (from setPool
// when possible) if v has none.
func (c *Cache) videoSet(v chunk.VideoID) map[uint32]ordtree.Node {
	set := c.videos[v]
	if set == nil {
		if k := len(c.setPool); k > 0 {
			set = c.setPool[k-1]
			c.setPool = c.setPool[:k-1]
		} else {
			set = make(map[uint32]ordtree.Node)
		}
		c.videos[v] = set
	}
	return set
}

// evict removes the chunk at node x from disk bookkeeping, keeping its
// IAT history, and returns its ID. Emptied per-video index sets are
// recycled through setPool instead of being re-allocated for the next
// new video.
func (c *Cache) evict(x ordtree.Node) chunk.ID {
	id := chunk.FromKey(c.tree.ID(x))
	c.tree.Remove(x)
	if !c.opt.FileLevel {
		e := c.iat[id.Key()]
		e.node = ordtree.Nil
		c.iat[id.Key()] = e
	}
	if set := c.videos[id.Video]; set != nil {
		delete(set, id.Index)
		if len(set) == 0 {
			delete(c.videos, id.Video)
			if len(c.setPool) < 64 {
				c.setPool = append(c.setPool, set)
			}
		}
	}
	return id
}

// Forget undoes the admission of one chunk whose cache fill failed
// (the HTTP edge server's degrade-to-redirect path): disk bookkeeping
// drops the chunk while its IAT history is kept — a fill failure says
// nothing about the chunk's popularity. No-op when the chunk is not on
// disk.
func (c *Cache) Forget(id chunk.ID) {
	if x := c.nodeOf(id); x != ordtree.Nil {
		c.evict(x)
	}
}

// cleanup prunes IAT history of chunks that are not cached and whose
// popularity is too stale to influence any future decision. The
// horizon is a small multiple of the cache age — beyond it, T/IAT is
// negligible.
func (c *Cache) cleanup(now int64) {
	// A full-map sweep only pays off once stale history can dominate:
	// while the IAT table is within 2x of the cached set (whose entries
	// are never prunable), skip the scan entirely. This caps memory at
	// a small multiple of the disk while eliminating the periodic
	// whole-map iteration on dense, cache-sized workloads.
	if len(c.iat) <= 2*c.tree.Len() {
		return
	}
	age := c.CacheAge(now)
	if age <= 0 {
		age = float64(now - c.firstTime)
	}
	cutoff := now - int64(8*age) - 1
	for k, e := range c.iat {
		if c.lastSeen(e) >= cutoff {
			continue
		}
		if c.opt.FileLevel {
			// The entry is shared by the whole video; keep it while
			// any chunk of the video is cached.
			if len(c.videos[chunk.FromKey(k).Video]) > 0 {
				continue
			}
		} else if e.node != ordtree.Nil {
			continue
		}
		delete(c.iat, k)
	}
}
