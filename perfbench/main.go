// Command perfbench is the repository's benchmark. It builds one
// workload's kvserve node(s) in-process from the exported constructors and
// kvserve's defaults, drives them over loopback TCP with a closed loop of
// two connections, checks every result, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": V, "unit": "U"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones: wall-clock throughput
// and get latency beside the paper's virtual device time per op, heap
// allocation per op, and set-up time. With -trace 1 the program
// first measures an untraced run (for the tracing overhead), then a traced
// run whose wrappers around each layer's public functions, plus the
// layers' own counters, give the per-layer metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload read-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: read-cold, write-durable, cluster-sync (see workloads.go).
// A wrong result, a lost acknowledged write, a steady-state precondition
// that does not hold, or a traced count that does not reconcile exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// setups is how many times an untraced run sets its workload up; setup_s
// is their median.
const setups = 3

func main() {
	name := flag.String("workload", "", "workload: read-cold, write-durable or cluster-sync")
	seed := flag.Uint64("seed", 1, "seed of the generated operation streams")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fatalf("%v", err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be at least 1 and -trace 0 or 1")
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	js, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(js))
	if !out.Correct {
		os.Exit(1)
	}
}

// result is one invocation's outcome.
type result struct {
	metrics           []metric
	problems          []string
	attempted, failed int64
	phases            []*phase // the measured phases, untraced first
}

// run measures workload w for d. Untraced, it reports the end-to-end
// metrics; traced, an untraced phase for the baseline throughput and then
// a traced phase for the per-layer metrics.
func run(w workloadDef, seed uint64, d time.Duration, traced bool) (result, error) {
	var res result
	n := setups
	if traced {
		n = 1
	}
	base, err := measure(w, seed, d, false, n)
	if err != nil {
		return res, err
	}
	res.phases = append(res.phases, base)
	res.metrics = endToEnd(base)
	if traced {
		// Return the closed untraced nodes' memory before building the
		// traced ones, so the two sets never hold memory at once.
		debug.FreeOSMemory()
		ph, err := measure(w, seed, d, true, 1)
		if err != nil {
			return res, err
		}
		res.phases = append(res.phases, ph)
		res.metrics = perLayer(ph, base.opsPerSec())
	}
	for _, ph := range res.phases {
		res.problems = append(res.problems, ph.problems...)
		res.attempted += ph.timed.attempted
		res.failed += ph.timed.failed
	}
	return res, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
