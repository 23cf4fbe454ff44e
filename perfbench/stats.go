package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"videocdn/internal/cost"
)

// quantile of sorted xs with linear interpolation; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func efficiencyOf(requested, filled, redirected int64) float64 {
	return cost.Counters{Requested: requested, Filled: filled, Redirected: redirected}.Efficiency(cost.MustModel(alphaF2R))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the single JSON line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	violations []string
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records an output-check violation, an output that is wrong: it
// is printed, counted as failed and makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.failOp(format, args...)
	r.Correct = false
}

// failOp records work the edge did not carry out, though nothing it
// returned was wrong: a request whose response was cut short (the
// client sees the error), or a live Eq. 2 that falls short of the
// offline replay's because the edge redirected requests its policy had
// admitted. It is printed and counted as failed.
func (r *report) failOp(format string, args ...any) {
	r.Failed++
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *report) json() string {
	b, _ := json.Marshal(r)
	return string(b)
}
