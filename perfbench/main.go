// Command perfbench is eLinda's end-to-end benchmark. One run sets up
// the system from generated N-Triples bytes and drives four phases in one
// process, each a closed loop with one client:
//
//   - explore: seeded exploration sessions through core.Explorer/Pane;
//   - serve:   SPARQL over loopback HTTP to System.Endpoint();
//   - update:  single-triple SPARQL UPDATE writes over HTTP, each
//     followed by an explorer chart and a chart query;
//   - fleet:   writes to a coordinator replicated to two replicas and
//     read through a router, all in this process on loopback.
//
// The workload names the graph size (full or quarter). Every output is
// checked against an oracle built apart from the program. With -trace 1
// the run times each layer's calls instead and prints per-layer metrics.
//
// Usage:
//
//	perfbench -workload full -seed 1 -seconds 40 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// systemHeapMB is heap_mb's part of the explore/serve/update system,
	// kept for the tests.
	systemHeapMB float64
}

// config is one run's parameters.
type config struct {
	workload string
	sc       scale
	seed     int64
	seconds  float64
	workdir  string
	// tracedir receives the traced run's spans.
	tracedir string
	// info receives the human-readable lines printed before the result.
	info func(format string, args ...any)
}

// Shares of the measured time given to each phase. Explore gets the most:
// its sessions are the longest operations. Serve gets a quarter, so that
// its cost per query averages over more than two rounds of Zipf draws.
var phaseShare = map[string]float64{"explore": 0.40, "serve": 0.25, "update": 0.10, "fleet": 0.25}

func (c config) budget(phase string) time.Duration {
	return time.Duration(c.seconds * phaseShare[phase] * float64(time.Second))
}

func main() {
	workload := flag.String("workload", "full", "graph size: full or quarter")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 40, "measured seconds, shared by the four phases")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "directory for the fleet replicas' files")
	tracedir := flag.String("tracedir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	sc, ok := scales[*workload]
	if !ok || *workload == "toy" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want full or quarter)\n", *workload)
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		sc:       sc,
		seed:     *seed,
		seconds:  *seconds,
		workdir:  fmt.Sprintf("%s/%d-%d", *workdir, os.Getpid(), time.Now().UnixNano()),
		tracedir: *tracedir,
		info:     func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}
	hygiene(cfg.info, "start")
	start := time.Now()
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runMeasured(cfg)
	}
	os.RemoveAll(cfg.workdir)
	hygiene(cfg.info, "end")
	cfg.info("run took %.1fs", time.Since(start).Seconds())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// hygiene prints what a reader needs to judge a run's conditions:
// GOMAXPROCS, CPUs, the Go version and the hypervisor steal ticks
// (read-only from /proc/stat; absent where there is none).
func hygiene(info func(string, ...any), when string) {
	info("hygiene %s: GOMAXPROCS=%d nproc=%d go=%s steal_ticks=%s", when,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), stealTicks())
}

func stealTicks() string {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return "n/a"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return "n/a"
	}
	return f[8]
}
