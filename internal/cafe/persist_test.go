package cafe

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/trace"
)

// randomTrace builds a workload for the persistence differential test.
func randomTrace(seed int64, n int) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []trace.Request
	tm := int64(0)
	for i := 0; i < n; i++ {
		tm += int64(rng.Intn(8))
		c0 := rng.Intn(3)
		reqs = append(reqs, req(tm, chunk.VideoID(rng.Intn(30)), c0, c0+rng.Intn(3)))
	}
	return reqs
}

// The gold-standard persistence test: run half a trace, snapshot,
// restore, and verify the restored cache makes byte-identical
// decisions to the original for the rest of the trace.
func TestSaveLoadDifferential(t *testing.T) {
	reqs := randomTrace(7, 2000)
	half := len(reqs) / 2

	orig := newCache(t, 32, 2, Options{})
	for _, r := range reqs[:half] {
		orig.HandleRequest(r)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() {
		t.Fatalf("restored Len %d != %d", restored.Len(), orig.Len())
	}
	for i, r := range reqs[half:] {
		a := orig.HandleRequest(r)
		b := restored.HandleRequest(r)
		if a.Decision != b.Decision || a.FilledChunks != b.FilledChunks || a.EvictedChunks != b.EvictedChunks {
			t.Fatalf("request %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func TestSaveLoadPreservesOptions(t *testing.T) {
	opts := Options{Gamma: 0.4, WindowScale: 2, FileLevel: true, NoVideoEstimate: true}
	c := newCache(t, 16, 3, opts)
	for _, r := range randomTrace(3, 300) {
		c.HandleRequest(r)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.opt != opts {
		t.Errorf("options = %+v, want %+v", got.opt, opts)
	}
	if got.alpha != 3 || got.cfg != c.cfg {
		t.Errorf("config/alpha not preserved: %+v alpha=%v", got.cfg, got.alpha)
	}
	if got.requests != c.requests || got.lastTime != c.lastTime {
		t.Error("clock state not preserved")
	}
}

func TestSaveLoadEmptyCache(t *testing.T) {
	c := newCache(t, 8, 1, Options{})
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("empty cache restored with %d chunks", got.Len())
	}
	// A restored empty cache must be fully usable.
	out := got.HandleRequest(req(0, 1, 0, 0))
	_ = out
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad magic":   "NOTACAFE-SNAPSHOT",
		"truncated":   "CAFESNP1",
		"short magic": "CAFE",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(in)); err == nil {
				t.Error("garbage snapshot should fail to load")
			}
		})
	}
}

func TestLoadRejectsTruncatedBody(t *testing.T) {
	c := newCache(t, 16, 1, Options{})
	for _, r := range randomTrace(9, 200) {
		c.HandleRequest(r)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail cleanly, never panic.
	for _, frac := range []float64{0.3, 0.6, 0.9, 0.99} {
		n := int(frac * float64(len(full)))
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncated snapshot (%d/%d bytes) should fail", n, len(full))
		}
	}
}

// snapEntry is one IAT entry of a hand-built snapshot; known=false
// writes the unknown-dt marker.
type snapEntry struct {
	key   uint64
	known bool
	dt    float64
	t     uint64
}

// buildSnapshot encodes a snapshot in Save's format by hand: a started
// cache with clock 0..100, alpha 2, window scale 1, the given disk size,
// gamma, IAT table and cached chunks.
func buildSnapshot(disk uint64, gamma float64, entries []snapEntry, chunks []uint64) []byte {
	b := append([]byte(nil), snapshotMagic[:]...)
	u := func(v uint64) { b = binary.AppendUvarint(b, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	u(testK)
	u(disk)
	f(2)
	f(gamma)
	f(1)
	u(0) // file level
	u(0) // no video estimate
	u(0) // first time
	u(100)
	u(10) // requests
	u(1)  // started
	u(uint64(len(entries)))
	for _, e := range entries {
		u(e.key)
		if e.known {
			u(1)
			f(e.dt)
		} else {
			u(0)
		}
		u(e.t)
	}
	u(uint64(len(chunks)))
	for _, k := range chunks {
		u(k)
	}
	return b
}

// TestLoadRejectsOversizedChunkSet feeds Load hand-built snapshots that
// are well-formed byte streams but inconsistent caches; each must be
// refused with an error, never loaded or panicked on.
func TestLoadRejectsOversizedChunkSet(t *testing.T) {
	a := (chunk.ID{Video: 1, Index: 0}).Key()
	b := (chunk.ID{Video: 1, Index: 1}).Key()
	good := []snapEntry{{key: a, known: true, dt: 5, t: 90}, {key: b, known: true, dt: 7, t: 95}}
	if c, err := Load(bytes.NewReader(buildSnapshot(2, DefaultGamma, good, []uint64{a, b}))); err != nil || c.Len() != 2 {
		t.Fatalf("consistent hand-built snapshot: %v", err)
	}
	cases := map[string][]byte{
		"more chunks than the disk": buildSnapshot(1, DefaultGamma, good, []uint64{a, b}),
		"chunk without IAT state":   buildSnapshot(2, DefaultGamma, good[:1], []uint64{a, b}),
		"chunk with unknown dt":     buildSnapshot(2, DefaultGamma, []snapEntry{good[0], {key: b, t: 95}}, []uint64{a, b}),
		"duplicated chunk":          buildSnapshot(2, DefaultGamma, good, []uint64{a, a}),
		"NaN dt":                    buildSnapshot(2, DefaultGamma, []snapEntry{{key: a, known: true, dt: math.NaN(), t: 90}}, []uint64{a}),
		"infinite dt":               buildSnapshot(2, DefaultGamma, []snapEntry{{key: a, known: true, dt: math.Inf(1), t: 90}}, nil),
		"negative dt":               buildSnapshot(2, DefaultGamma, []snapEntry{{key: a, known: true, dt: -3, t: 90}}, nil),
		"seen after the clock":      buildSnapshot(2, DefaultGamma, []snapEntry{{key: a, known: true, dt: 5, t: 101}}, nil),
		"seen beyond int32 offset":  buildSnapshot(2, DefaultGamma, []snapEntry{{key: a, known: true, dt: 5, t: 1 << 40}}, nil),
		"NaN gamma":                 buildSnapshot(2, math.NaN(), good, []uint64{a}),
	}
	for name, snap := range cases {
		t.Run(name, func(t *testing.T) {
			if c, err := Load(bytes.NewReader(snap)); err == nil {
				t.Errorf("inconsistent snapshot loaded with %d chunks", c.Len())
			}
		})
	}
}

// FuzzCafeLoad: arbitrary bytes either load or fail with an error,
// never panic, and a loaded cache keeps working within its disk.
func FuzzCafeLoad(f *testing.F) {
	for _, opt := range []Options{{}, {FileLevel: true, Gamma: 0.5}} {
		c, err := New(coreCfg(16), 2, opt)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range randomTrace(5, 300) {
			c.HandleRequest(r)
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	a := (chunk.ID{Video: 1, Index: 0}).Key()
	f.Add(buildSnapshot(2, DefaultGamma, []snapEntry{{key: a, known: true, dt: 5, t: 90}}, []uint64{a}))
	f.Add(buildSnapshot(1, math.NaN(), []snapEntry{{key: a, known: true, dt: math.NaN(), t: 90}}, []uint64{a, a}))
	f.Add([]byte("CAFESNP1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		now := c.lastTime
		for _, r := range []trace.Request{req(now, 1, 0, 0), req(now, 1, 0, 2), req(now, 2, 1, 1), req(now, 1, 1, 1)} {
			c.HandleRequest(r)
		}
		c.Forget(chunk.ID{Video: 1, Index: 0})
		c.PrefetchChunk(chunk.ID{Video: 1, Index: 3}, now)
		if c.Len() > c.cfg.DiskChunks {
			t.Fatalf("Len %d exceeds the %d-chunk disk", c.Len(), c.cfg.DiskChunks)
		}
	})
}
