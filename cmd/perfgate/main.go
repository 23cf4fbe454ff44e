// Command perfgate compares freshly generated benchmark reports
// against committed baselines and fails only on order-of-magnitude
// regressions — the coarse smoke gate CI runs on every push.
//
// It deliberately does NOT assert "no slowdown": CI containers are
// small (often a single CPU), noisy, and unlike the machine that
// generated the committed baseline, so any tight threshold would flap.
// What a 10x tolerance still catches is the class of bug this
// repository's perf work actually regresses by: an accidental
// O(n) scan on a hot path, a lost fast path, a copy where a borrow
// should be. Four rules:
//
//  1. every ns_per_op / ns_per_request metric present in both reports
//     may grow at most -tolerance-fold (default 10x);
//  2. every allocs_per_op / allocs_per_request metric that is zero in
//     the baseline must stay zero — the zero-alloc serve, Get and
//     trace-cursor paths are structural invariants, not timings, so
//     they hold on any machine;
//  3. every bytes_per_sec throughput may shrink at most
//     -tolerance-fold (rates regress by getting smaller);
//  4. every cpu_sec_per_gb / peak_fill_bytes cost may grow at most
//     -tolerance-fold — peak_fill_bytes in particular is the
//     O(fill buffer × in-flight fills) bound of the edge's one
//     streaming fill path, and any change that makes fills hold whole
//     chunks blows it by more than any machine-to-machine noise.
//
// When the two reports record different "cpus" counts they came from
// different machines (committed baseline vs CI container), so the
// timing/rate/cost tolerances are widened 4x; the allocation
// invariants are machine-independent and stay strict.
//
// Metrics are discovered by walking the JSON trees, so the gate needs
// no schema knowledge and keeps working as reports grow new sections.
// A metric present in the baseline but missing from the current report
// fails the gate: silently dropping a measured path is itself a
// regression. The exception is a metric whose entire containing row is
// absent — smoke runs sweep fewer configurations (fewer shard counts,
// shorter matrices) than the full committed baseline, so a shorter
// runs[] array is expected; only a leaf vanishing from a row that
// exists counts as dropped.
//
// Usage:
//
//	perfgate BENCH_store.json /tmp/store_smoke.json [BENCH_edge.json /tmp/edge_smoke.json ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	tolerance := flag.Float64("tolerance", 10, "max allowed ns_per_op growth factor vs baseline")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 || len(args)%2 != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfgate [-tolerance N] baseline.json current.json [baseline2.json current2.json ...]")
		os.Exit(2)
	}
	failed := false
	for i := 0; i < len(args); i += 2 {
		if !comparePair(args[i], args[i+1], *tolerance) {
			failed = true
		}
	}
	if failed {
		fmt.Println("perfgate: FAIL")
		os.Exit(1)
	}
	fmt.Println("perfgate: ok")
}

// comparePair diffs one (baseline, current) report pair and reports
// whether it passes.
func comparePair(basePath, curPath string, tolerance float64) bool {
	base, _, baseCPUs, err := loadMetrics(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		return false
	}
	cur, curNodes, curCPUs, err := loadMetrics(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		return false
	}
	fmt.Printf("%s vs %s:\n", basePath, curPath)
	if baseCPUs > 0 && curCPUs > 0 && baseCPUs != curCPUs {
		tolerance *= 4
		fmt.Printf("  baseline machine has %d CPUs, this one %d: widening timing/rate/cost tolerance to %.0fx (alloc invariants stay strict)\n",
			baseCPUs, curCPUs, tolerance)
	}
	paths := make([]string, 0, len(base))
	for p := range base {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	ok := true
	checked := 0
	skippedRows := 0
	for _, p := range paths {
		b := base[p]
		c, present := cur[p]
		if !present {
			if !curNodes[parentPath(p)] {
				// The whole row is absent from the current report: the
				// smoke run swept fewer configurations, not a dropped
				// metric.
				skippedRows++
				continue
			}
			fmt.Printf("  MISSING %s (baseline %g; metric disappeared from the current report)\n", p, b)
			ok = false
			continue
		}
		switch metricKind(p) {
		case "ns":
			checked++
			if b > 0 && c > b*tolerance {
				fmt.Printf("  REGRESSION %s: %.0f ns/op vs baseline %.0f (%.1fx > %.0fx tolerance)\n",
					p, c, b, c/b, tolerance)
				ok = false
			}
		case "allocs":
			checked++
			if b == 0 && c > 0 {
				fmt.Printf("  REGRESSION %s: %g allocs/op on a path that was allocation-free\n", p, c)
				ok = false
			}
		case "rate":
			checked++
			if b > 0 && c > 0 && c < b/tolerance {
				fmt.Printf("  REGRESSION %s: %.3g/s vs baseline %.3g (%.1fx slower > %.0fx tolerance)\n",
					p, c, b, b/c, tolerance)
				ok = false
			}
		case "cost":
			checked++
			if b > 0 && c > b*tolerance {
				fmt.Printf("  REGRESSION %s: %.3g vs baseline %.3g (%.1fx > %.0fx tolerance)\n",
					p, c, b, c/b, tolerance)
				ok = false
			}
		}
	}
	if ok {
		fmt.Printf("  %d metrics within tolerance\n", checked)
	}
	if skippedRows > 0 {
		fmt.Printf("  %d baseline metrics skipped (their rows are absent from the current sweep)\n", skippedRows)
	}
	return ok
}

// parentPath strips the leaf field from a metric path:
// "runs[1].allocs_per_request" -> "runs[1]". A bare leaf has the root
// ("") as its parent.
func parentPath(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '.' {
			return p[:i]
		}
	}
	return ""
}

// metricKind classifies a metric path by its leaf field name: "ns" for
// timing leaves gated by the growth tolerance, "allocs" for allocation
// leaves gated by the zero-stays-zero rule, "rate" for throughputs
// gated against shrinking, "cost" for per-unit costs (CPU per GB, peak
// fill memory) gated against growing.
func metricKind(path string) string {
	kinds := []struct{ leaf, kind string }{
		{"ns_per_op", "ns"},
		{"ns_per_request", "ns"},
		{"allocs_per_op", "allocs"},
		{"allocs_per_request", "allocs"},
		{"bytes_per_sec", "rate"},
		{"cpu_sec_per_gb", "cost"},
		{"peak_fill_bytes", "cost"},
	}
	for _, k := range kinds {
		if n := len(path) - len(k.leaf); n >= 0 && path[n:] == k.leaf {
			return k.kind
		}
	}
	return ""
}

// loadMetrics flattens every gated leaf of a report into path → value,
// plus the set of container-node paths used to tell "row absent" apart
// from "leaf dropped", plus the report's top-level "cpus" count (0 if
// absent) for the cross-machine tolerance widening.
func loadMetrics(path string) (map[string]float64, map[string]bool, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %v", path, err)
	}
	out := map[string]float64{}
	nodes := map[string]bool{}
	collect("", tree, out, nodes)
	cpus := 0
	if root, isObj := tree.(map[string]any); isObj {
		if f, isNum := root["cpus"].(float64); isNum {
			cpus = int(f)
		}
	}
	return out, nodes, cpus, nil
}

// collect walks the JSON tree recording the gated leaves and every
// object/array node path. Array elements are addressed by index —
// stable as long as the same binary generated both reports, which the
// Makefile target guarantees.
func collect(prefix string, v any, out map[string]float64, nodes map[string]bool) {
	switch node := v.(type) {
	case map[string]any:
		nodes[prefix] = true
		for k, child := range node {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			if f, isNum := child.(float64); isNum && metricKind(p) != "" {
				out[p] = f
				continue
			}
			collect(p, child, out, nodes)
		}
	case []any:
		nodes[prefix] = true
		for i, child := range node {
			collect(fmt.Sprintf("%s[%d]", prefix, i), child, out, nodes)
		}
	}
}
