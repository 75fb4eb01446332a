// Command perfbench is the ordering service's benchmark. One invocation
// runs one workload on durable in-process clusters, driving them only
// through their public APIs (core.NewCluster, core.Frontend,
// transport.InProcNetwork, wan.NewModelSeeded); it checks the released
// blocks for correctness and prints every metric by name with its unit.
// The last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run attaches outside-in probes at each layer's public seam and reports
// the per-layer metrics instead. Run it through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload lan-saturate --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
)

// gomaxprocs pins the scheduler's parallelism in every run, so a host
// with more CPUs does not silently change the numbers.
const gomaxprocs = 2

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: lan-saturate, lan-bulk-catchup, wan-wheat or lan-leader-crash")
	seed := flag.Int64("seed", 1, "seed of the envelope payloads and the WAN jitter")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	traced := *trace == 1

	out, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	info := map[string]any{
		"workload": w.name,
		"seed":     *seed,
		"seconds":  *seconds,
		"trace":    *trace,
		"runtime":  bench.CaptureEnv(),
		"samples":  out.samples,
	}
	infoJSON, _ := json.Marshal(info) // plain values always marshal
	fmt.Printf("env %s\n", infoJSON)
	reported := out.endToEnd
	if traced {
		reported = out.perLayer
	}
	for _, m := range append(append([]metric(nil), reported...), out.extra...) {
		if m.samples > 0 {
			fmt.Printf("%-42s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Printf("%-42s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	for _, p := range out.problems {
		fmt.Printf("FAIL %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(reported))
	for _, m := range reported {
		metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	summary, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(summary))
	if len(out.problems) > 0 {
		return 1
	}
	return 0
}
