package cafe

import (
	"math"

	"videocdn/internal/chunk"
	"videocdn/internal/ordtree"
)

// PrefetchChunk proactively fills one chunk outside the request path —
// the paper's "proactive caching for spare ingress" future-work hook
// (Section 10). It returns whether the chunk was admitted, plus the
// chunks displaced to make room — drivers that materialize bytes (the
// HTTP edge server) must delete exactly those from their store, or the
// displaced bytes leak.
//
// Admission is conservative so prefetching cannot pollute the cache:
// the chunk needs an IAT estimate (its own history, or the video's
// cached-chunk estimate), and when the disk is full it must be
// strictly more popular (smaller estimated IAT) than the least popular
// resident, which it then displaces. Callers are responsible for
// spending ingress only when it is actually spare (e.g. off-peak); see
// internal/prefetch.
func (c *Cache) PrefetchChunk(id chunk.ID, now int64) (admitted bool, evicted []chunk.ID) {
	if now < c.lastTime || (c.started && now-c.firstTime > math.MaxInt32) {
		// Prefetch uses the same logical clock as requests.
		return false, nil
	}
	if !c.started {
		c.firstTime = now
		c.started = true
	}
	c.lastTime = now
	if c.nodeOf(id) != ordtree.Nil {
		return false, nil
	}
	k := c.iatKey(id)
	e := c.entry(k)
	var est float64
	switch e.dt {
	case absentDT:
		v, vok := c.videoEstimate(id.Video, now)
		if !vok {
			return false, nil // nothing known; refuse blind ingress
		}
		est = v
	case unknownDT:
		est = float64(now - c.lastSeen(e))
		if est < 1 {
			est = 1
		}
	default:
		est = c.iatAt(e, now)
	}
	if free := c.cfg.DiskChunks - c.tree.Len(); free <= 0 {
		// Displace only a strictly less popular resident.
		if est >= c.CacheAge(now) {
			return false, nil
		}
		x := c.tree.Min()
		if x == ordtree.Nil {
			return false, nil
		}
		evicted = append(evicted, c.evict(x))
	}
	if e.dt == absentDT || e.dt == unknownDT {
		// Materialize the estimate as the chunk's state so the tree
		// key and future cache-age lookups stay consistent.
		e = iatEntry{dt: est, t: c.offset(now)}
	}
	x := c.tree.Insert(id.Key(), c.treeKey(e))
	if !c.opt.FileLevel {
		e.node = x
	}
	c.iat[k] = e
	c.videoSet(id.Video)[id.Index] = x
	return true, evicted
}

// HighestCachedIndex returns the largest cached chunk index of the
// video, ok=false when none is cached. Prefetch planners use it for
// sequential read-ahead.
func (c *Cache) HighestCachedIndex(v chunk.VideoID) (uint32, bool) {
	set := c.videos[v]
	if len(set) == 0 {
		return 0, false
	}
	var best uint32
	first := true
	for ci := range set {
		if first || ci > best {
			best = ci
			first = false
		}
	}
	return best, true
}
