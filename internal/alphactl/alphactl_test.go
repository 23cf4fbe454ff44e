package alphactl

import (
	"math"
	"math/rand"
	"testing"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
	"videocdn/internal/xlru"
)

const testK = 1024

func req(t int64, v chunk.VideoID, c0, c1 int) trace.Request {
	return trace.Request{Time: t, Video: v, Start: int64(c0) * testK, End: int64(c1+1)*testK - 1}
}

func newCafe(t *testing.T, disk int, alpha float64) *cafe.Cache {
	t.Helper()
	c, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: disk}, alpha, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSetAlphaOnCaches(t *testing.T) {
	c := newCafe(t, 4, 2)
	if c.Alpha() != 2 {
		t.Fatalf("Alpha = %v", c.Alpha())
	}
	if err := c.SetAlpha(3); err != nil || c.Alpha() != 3 {
		t.Errorf("SetAlpha: %v, alpha=%v", err, c.Alpha())
	}
	for _, bad := range []float64{0, math.NaN(), math.Inf(1)} {
		if err := c.SetAlpha(bad); err == nil || c.Alpha() != 3 {
			t.Errorf("SetAlpha(%v) = %v, alpha now %v; want an error and alpha 3", bad, err, c.Alpha())
		}
	}
	x, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.SetAlpha(1.5); err != nil || x.Alpha() != 1.5 {
		t.Errorf("xlru SetAlpha: %v, alpha=%v", err, x.Alpha())
	}
	for _, bad := range []float64{-1, math.NaN()} {
		if err := x.SetAlpha(bad); err == nil || x.Alpha() != 1.5 {
			t.Errorf("xlru SetAlpha(%v) = %v, alpha now %v; want an error and alpha 1.5", bad, err, x.Alpha())
		}
	}
}

func TestNewValidation(t *testing.T) {
	c := newCafe(t, 4, 2)
	good := Config{TargetIngress: 0.1}
	if _, err := New(nil, good); err == nil {
		t.Error("nil cache should fail")
	}
	bads := []Config{
		{TargetIngress: 0},
		{TargetIngress: 1.5},
		{TargetIngress: 0.1, MinAlpha: 2, MaxAlpha: 1},
		{TargetIngress: 0.1, WindowSeconds: -1},
		{TargetIngress: 0.1, Gain: -1},
	}
	for i, cfg := range bads {
		if _, err := New(c, cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	// Cache alpha outside the control range.
	c8 := newCafe(t, 4, 8)
	if _, err := New(c8, Config{TargetIngress: 0.1, MinAlpha: 1, MaxAlpha: 4}); err == nil {
		t.Error("alpha outside range should fail")
	}
	ctl, err := New(c, good)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Name() != "cafe+alphactl" {
		t.Errorf("Name = %q", ctl.Name())
	}
}

func TestControllerRaisesAlphaOnExcessIngress(t *testing.T) {
	// Tiny disk + diverse one-shot traffic -> the warmup and churn
	// keep ingress high; the controller must push alpha upward.
	c := newCafe(t, 16, 1)
	ctl, err := New(c, Config{
		TargetIngress: 0.01,
		MinAlpha:      1,
		MaxAlpha:      4,
		WindowSeconds: 100,
		Gain:          0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tm := int64(0)
	for i := 0; i < 3000; i++ {
		v := chunk.VideoID(rng.Intn(200))
		ctl.HandleRequest(req(tm, v, 0, rng.Intn(2)))
		// Second request soon after makes many videos admissible.
		ctl.HandleRequest(req(tm+1, v, 0, rng.Intn(2)))
		tm += 3
	}
	if ctl.Alpha() <= 1.5 {
		t.Errorf("alpha = %v; controller should have raised it toward the cap", ctl.Alpha())
	}
	n, log := ctl.Adjustments()
	if n == 0 || len(log) != n {
		t.Errorf("adjustments bookkeeping: n=%d log=%d", n, len(log))
	}
}

func TestControllerRespectsBounds(t *testing.T) {
	c := newCafe(t, 1024, 2)
	ctl, err := New(c, Config{
		TargetIngress: 0.9, // absurd target: wants MORE ingress
		MinAlpha:      1.5,
		MaxAlpha:      3,
		WindowSeconds: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	tm := int64(0)
	for i := 0; i < 2000; i++ {
		ctl.HandleRequest(req(tm, chunk.VideoID(i%10), 0, 0))
		tm += 2
	}
	if a := ctl.Alpha(); a < 1.5-1e-9 || a > 3+1e-9 {
		t.Errorf("alpha %v escaped the control range", a)
	}
	// With a too-high target, alpha should sit at the lower bound.
	if ctl.Alpha() > 1.6 {
		t.Errorf("alpha = %v; should have been driven to MinAlpha", ctl.Alpha())
	}
}

// On a realistic workload, the controller should land the ingress
// ratio nearer the target than a mis-configured static alpha does.
func TestControllerTracksTarget(t *testing.T) {
	p, err := workload.ProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	p.RequestsPerDay = 2000
	p.CatalogSize = 400
	p.NewVideosPerDay = 15
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.Generate(8)
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.05
	cfg := core.Config{ChunkSize: chunk.DefaultSize, DiskChunks: 1024}

	measure := func(c core.Cache) float64 {
		var requested, filled int64
		half := reqs[len(reqs)/2].Time
		for _, r := range reqs {
			out := c.HandleRequest(r)
			if r.Time < half {
				continue // skip warmup
			}
			requested += r.Bytes()
			if out.Decision == core.Serve {
				filled += out.FilledBytes
			}
		}
		return float64(filled) / float64(requested)
	}

	static, err := cafe.New(cfg, 1, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	staticIng := measure(static)

	tuned, err := cafe.New(cfg, 1, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(tuned, Config{TargetIngress: target, MinAlpha: 1, MaxAlpha: 4, WindowSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	ctlIng := measure(ctl)

	errStatic := abs(staticIng - target)
	errCtl := abs(ctlIng - target)
	if errCtl > errStatic {
		t.Errorf("controller ingress %.3f further from target %.2f than static alpha=1 (%.3f)",
			ctlIng, target, staticIng)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
