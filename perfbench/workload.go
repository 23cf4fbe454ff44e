package main

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/edge"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
)

// alphaF2R is the paper's fill-to-redirect cost ratio; every workload
// runs Cafe at this value.
const alphaF2R = 2.0

// liveSpec describes one open-loop edge workload. Rates climb the
// ladder in order; rung ref is the reference rate at which latency,
// CPU and allocations are reported.
type liveSpec struct {
	k          int64   // chunk size K
	p99LimitMs float64 // p99 latency a rung must meet
	rates      []float64
	ref        int
	refShare   float64 // share of the run's seconds spent on the reference rung
	gen        func(seed int64, n int, smoke bool) (*liveLoad, error)
}

// liveLoad is a generated live workload: the origin's catalog, the
// edge disk, the set-up (warm) requests and a request stream from
// which the rungs draw in order.
type liveLoad struct {
	catalog edge.MapCatalog
	disk    int // edge disk in chunks
	warm    []trace.Request
	stream  []trace.Request
	// t0 is the first trace second of the measured window: every warm
	// request is earlier, every stream request is at or after it.
	t0 int64
}

var liveSpecs = map[string]*liveSpec{
	// The whole catalog is on disk and warm, so every request is a
	// hit served from the slab store (sendfile); policy and fills do
	// almost nothing. The limit is 50 ms: a 2 MB chunk is about a
	// second of HD video, and a player that waits 5 % of that for it at
	// the 99th percentile still keeps its buffer full.
	"hot-serve": {
		k: 2 << 20, p99LimitMs: 50,
		rates: []float64{300, 600, 900, 1100, 1300, 1500, 1750, 2000}, ref: 0, refShare: 0.45,
		gen: genHotServe,
	},
	// A churning catalog on a disk far below the working set: Cafe
	// fills, evicts and redirects on most requests. K and video sizes
	// are scaled down together (32 KB chunks). The limit is 50 ms:
	// a 302 or a multi-chunk fill must still start playback well
	// inside a second.
	"churn": {
		k: 32 << 10, p99LimitMs: 50,
		rates: []float64{400, 700, 1000, 1300, 1600, 1900}, ref: 0, refShare: 0.45,
		gen: genChurn,
	},
}

// genHotServe: a catalog of whole-chunk videos (2 to 6 chunks of 2 MB)
// with Zipf(0.9) popularity; each request is one chunk-aligned 2 MB
// range of a Zipf-chosen video. The disk holds the whole catalog and
// the warm requests touch every chunk once.
func genHotServe(seed int64, n int, smoke bool) (*liveLoad, error) {
	const k = 2 << 20
	videos := 32
	if smoke {
		videos = 4
	}
	rng := rand.New(rand.NewSource(seed))
	ids := make([]chunk.VideoID, videos)
	chunks := make([]int, videos)
	cat := edge.MapCatalog{}
	total := 0
	for i, p := range rng.Perm(videos) {
		ids[i] = chunk.VideoID(1000 + p)
		chunks[i] = 2 + rng.Intn(5)
		cat[ids[i]] = int64(chunks[i]) * k
		total += chunks[i]
	}
	l := &liveLoad{catalog: cat, disk: total}
	for i, v := range ids {
		for c := 0; c < chunks[i]; c++ {
			l.warm = append(l.warm, trace.Request{Video: v, Start: int64(c) * k, End: int64(c+1)*k - 1})
		}
	}
	cum := make([]float64, videos)
	sum := 0.0
	for i := range cum {
		sum += math.Pow(float64(i+1), -0.9)
		cum[i] = sum
	}
	l.t0 = 60
	for i := 0; i < n; i++ {
		x := rng.Float64() * sum
		vi := 0
		for cum[vi] < x {
			vi++
		}
		c := int64(rng.Intn(chunks[vi]))
		l.stream = append(l.stream, trace.Request{Time: l.t0 + int64(i)/100, Video: ids[vi], Start: c * k, End: (c+1)*k - 1})
	}
	return l, nil
}

// churnProfile is the europe profile with video sizes divided by 64,
// to match 32 KB chunks instead of 2 MB, and a video-size spread of 0.5
// instead of 1, so that the few hottest videos' sizes weigh less and
// fills per request vary less from seed to seed.
func churnProfile(seed int64, smoke bool) workload.Profile {
	p, _ := workload.ProfileByName("europe")
	p.Seed = seed
	p.RequestsPerDay = 20000
	p.CatalogSize = 2000
	p.NewVideosPerDay = 150
	if smoke {
		p.CatalogSize = 200
	}
	p.MeanVideoMB /= 64
	p.MinVideoMB /= 64
	p.MaxVideoMB /= 64
	p.SigmaVideo = 0.5
	return p
}

var errEnough = errors.New("enough requests")

// genChurn: the first churnWarmDays of a generated trace warm the edge;
// the measured stream follows from the next minute boundary.
func genChurn(seed int64, n int, smoke bool) (*liveLoad, error) {
	const k = 32 << 10
	warmSecs := int64(churnWarmDays * workload.SecondsPerDay)
	if smoke {
		warmSecs = 3600
	}
	g, err := workload.NewGenerator(churnProfile(seed, smoke))
	if err != nil {
		return nil, err
	}
	l := &liveLoad{catalog: edge.MapCatalog{}, t0: warmSecs}
	err = g.GenerateFunc(365, func(r trace.Request) error {
		if r.Time < warmSecs {
			l.warm = append(l.warm, r)
		} else {
			l.stream = append(l.stream, r)
		}
		if r.End+1 > l.catalog[r.Video] {
			l.catalog[r.Video] = r.End + 1
		}
		if len(l.stream) >= n {
			return errEnough
		}
		return nil
	})
	if err != nil && !errors.Is(err, errEnough) {
		return nil, err
	}
	l.disk = churnDiskChunks
	if smoke {
		l.disk = 256
	}
	return l, nil
}

const (
	churnWarmDays   = 0.1
	churnDiskChunks = 8192 // 256 MB of 32 KB chunks
)

// scheduled is one request of a segment: when it is due, relative to the
// segment's start, and its ID for the X-Request-ID header.
type scheduled struct {
	trace.Request
	due    time.Duration
	id     uint64
	sample bool // body is compared byte for byte with edge.ChunkData
}

// arrivalTimes draws Poisson arrivals at each rate for its duration.
// The sequence sent depends only on the seed, never on how fast the
// edge answers.
func arrivalTimes(seed int64, rates []float64, durs []time.Duration) [][]time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5ced))
	out := make([][]time.Duration, len(rates))
	for i, rate := range rates {
		var t time.Duration
		for {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= durs[i] {
				break
			}
			out[i] = append(out[i], t)
		}
	}
	return out
}

// bind assigns stream requests, in order, to the arrival times, with
// IDs numbered from first. Every sampleEvery-th request on average,
// chosen by a hash of the seed and ID, has its body checked byte for
// byte.
func bind(seed int64, due []time.Duration, stream []trace.Request, first uint64, sampleEvery uint64) []scheduled {
	out := make([]scheduled, len(due))
	for i, d := range due {
		id := first + uint64(i)
		out[i] = scheduled{Request: stream[i], due: d, id: id, sample: mix64(uint64(seed)^id*0x9E3779B97F4A7C15)%sampleEvery == 0}
	}
	return out
}

func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
