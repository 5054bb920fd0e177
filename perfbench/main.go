// Command perfbench is the repository's benchmark. It runs one named
// workload against the ordering service in its own process — live TCP
// clusters through the public sof API, or the virtual-time simulator
// through the harness — checks what the service committed against a model
// the benchmark computes itself, and prints every metric with its unit.
//
//	perfbench -workload kv-saturate -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// records spans around every call it makes into a layer and reports the
// per-layer set instead (see README.md). The process exits non-zero when a
// check fails or the workload cannot run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Int("seconds", 20, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	rate := fs.Int("rate", pacedRate, "open-loop arrivals per second of kv-durable-paced and recovery")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for WAL data and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *rate < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds and -rate must be >= 1, -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dataDir, err := os.MkdirTemp(*dir, "data-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dataDir)

	printEnv(stdout, *name, *seed, dataDir)
	r := newRunner(*name, *seed, time.Duration(*seconds)*time.Second, dataDir, stdout)
	r.rate = *rate
	var res result
	if *trace == 1 {
		res, err = runTraced(r, w, *dir)
	} else {
		res, err = r.measure(w, nil)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one set of inputs. It drives its load for the runner's
// budget, recording operations, windows and set-up times into the runner.
type workload func(r *runner) error

// workloads are the runnable workloads; BENCHMARK.json names the gated
// ones and says why each was chosen. recovery is not gated: its fault
// timings do not repeat closely enough (see README.md).
var workloads = map[string]workload{
	"kv-saturate":      runKVSaturate,
	"kv-durable-paced": runKVDurablePaced,
	"paper-sim":        runPaperSim,
	"recovery":         runRecovery,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
