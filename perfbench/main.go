// Command perfbench is the repository's benchmark: it runs one workload
// against the real edge server or replay engine, checks every output,
// and prints one JSON line of metrics last.
//
//	perfbench --workload hot-serve|churn|replay --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports end-to-end metrics from untraced runs; with
// --trace 1 it reports per-layer metrics from a traced run. The same
// binary also runs the helper processes (edge, origin, replay) when
// its first argument names one of those roles. See perfbench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are the benchmark's command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool   // tiny inputs, for the benchmark's own tests
	work     string // scratch directory inside the checkout
}

// roles are the helper processes this binary also runs.
var roles = map[string]func([]string) error{"edge": runEdge, "origin": runOrigin, "replay": runReplay}

func main() {
	if len(os.Args) > 1 {
		if role := roles[os.Args[1]]; role != nil {
			if err := role(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "hot-serve, churn or replay")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, v := range rep.violations {
		fmt.Println("violation:", v)
	}
	fmt.Println(rep.json())
}

// run executes one benchmark run in a fresh scratch directory under
// .bench_build and removes it afterwards.
func run(o options) (*report, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.work = work
	rep := newReport()
	if spec, ok := liveSpecs[o.workload]; ok {
		err = runLive(spec, o, rep)
	} else if o.workload == "replay" {
		err = runReplayWorkload(o, rep)
	} else {
		err = fmt.Errorf("unknown workload %q (want hot-serve, churn or replay)", o.workload)
	}
	return rep, err
}
