// Command perfbench measures the asynchronous solvers end to end and layer
// by layer: time-to-tolerance of closed-loop Solve calls on the model,
// shared and dist engines, and served latency of the HTTP job server under
// an open-loop arrival schedule.
//
//	go build -o perfbench . && ./perfbench --workload lasso-model --seed 1 --seconds 10 --trace 0
//
// Every input is derived from --seed. With --trace 0 the last line of
// standard output is a JSON object carrying the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, measured
// beside an untraced one so the tracing overhead is reported too.
// Progress and diagnostics go to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the solver sees (--trace 0).
var endToEnd = []metricDef{
	{"latency_ms.p50", "ms"},
	{"latency_ms.p90", "ms"},
	{"throughput_per_s", "1/s"},
	{"success_ratio", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics (--trace 1). A workload that does
// not exercise a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"scenario.build_ms", "ms"},
	{"scenario.reference_ms", "ms"},
	{"operators.eval_share", "ratio"},
	{"operators.eval_ns_per_component", "ns"},
	{"operators.components_per_solve", "count"},
	{"core.updates_per_solve", "count"},
	{"delay.label_share", "ratio"},
	{"steering.select_share", "ratio"},
	{"core.bookkeeping_share", "ratio"},
	{"runtime.updates_per_solve", "count"},
	{"runtime.overhead_share", "ratio"},
	{"dist.frames_per_solve", "count"},
	{"dist.bytes_per_frame", "bytes"},
	{"dist.probe_rounds_per_solve", "count"},
	{"dist.discard_ratio", "ratio"},
	{"dist.updates_per_solve", "count"},
	{"dist.overhead_share", "ratio"},
	{"dist.sockets_per_solve", "count"},
	{"server.admit_ms.p50", "ms"},
	{"server.queue_wait_ms.p90", "ms"},
	{"server.run_ms.p50", "ms"},
	{"server.report_kb", "KiB"},
	{"server.pool_reuse_ratio", "ratio"},
	{"server.build_share", "ratio"},
	{"server.solve_share", "ratio"},
	{"server.encode_share", "ratio"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_cpu_fraction", "ratio"},
	{"loadgen.late_ms.p90", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// zeroPerLayer returns every per-layer metric at 0, the value of a layer
// the workload does not exercise.
func zeroPerLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// options are one run's command-line settings.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	log     io.Writer
}

// outcome is what a workload run measured.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

type workload struct {
	name string
	run  func(options) (*outcome, error)
}

// workloads lists every workload; the reason each exists is in
// BENCHMARK.json.
var workloads = []workload{
	{"lasso-model", lassoModel.run},
	{"lasso-shared", lassoShared.run},
	{"lasso-dist-star", lassoDistStar.run},
	{"lasso-dist-mesh", lassoDistMesh.run},
	{"serve-mix", serveMix.run},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	out, err := w.run(options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		log:     stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := resultLine(out, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON line: exactly the end-to-end metrics,
// or exactly the per-layer ones when traced.
func resultLine(out *outcome, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if out.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res := resultJSON{
		Correct:   out.correct,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(res)
}
