// Command perfbench is the repository benchmark. It runs one named
// workload against the program's own packages, checks every output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// breakdown) as one JSON object on the last line of standard output.
// From the repository root:
//
//	bash perfbench/run.sh --workload estimate-interactive --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - estimate-interactive: open-loop Poisson arrivals of single-snapshot
//     POST /v1/estimate requests against a server with chaos-serve's
//     default settings.
//   - estimate-backfill: a closed loop of two connections sending large
//     POST /v1/estimate/batch requests while model versions hot-swap.
//   - dc-capping: a mixed-platform datacenter simulation under the
//     model-predictive capping controller, stepped like a monitor would.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported with
// -trace 0 on every workload. The p99 is not among them: on a shared
// 2-vCPU host it moves by more than any usable bound from run to run
// (interquartile spread 20-40% over ten seeds), so it is reported, not
// gated, as client.p99_ms in the traced run and in every run's log.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"est_per_s", "1/s"},
	{"sim_s_per_s", "s/s"},
	{"events_per_s", "1/s"},
	{"compliance_pct", "%"},
	{"throughput_retention", "ratio"},
	{"peak_heap_mb", "MB"},
	{"allocs_per_op", "count"},
}

// perLayer are the traced run's per-layer metrics.
var perLayer = []metricDef{
	{"client.p99_ms", "ms"},
	{"client.send_lag_p99_ms", "ms"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"serve.handler_mean_ms", "ms"},
	{"serve.decode_admit_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.fill_wait_ms", "ms"},
	{"serve.stage_queue_ms", "ms"},
	{"serve.stage_fill_ms", "ms"},
	{"serve.stage_predict_ms", "ms"},
	{"serve.respond_ms", "ms"},
	{"serve.stage_sum_pct", "%"},
	{"serve.req_bytes_per_est", "bytes"},
	{"serve.batch_size", "count"},
	{"serve.predictor_builds", "count"},
	{"online.predict_us_per_est", "us"},
	{"registry.activate_ms", "ms"},
	{"overload.admitted", "count"},
	{"overload.shed", "count"},
	{"overload.admit_ratio", "ratio"},
	{"runtime.allocs_per_est", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"cluster.events", "count"},
	{"cluster.steps", "count"},
	{"cluster.event_ns", "ns"},
	{"cluster.aggregate_ms", "ms"},
	{"cluster.allocs_per_event", "count"},
	{"control.ticks", "count"},
	{"control.decisions", "count"},
	{"control.actuations", "count"},
	{"control.tick_ms", "ms"},
	{"sim.stage_sum_pct", "%"},
	{"trace_overhead_pct", "%"},
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	log     io.Writer // human-readable report lines
}

// report is one workload run's outcome. attempted and failed count the
// workload's operations; a wrong output is a failed operation.
type report struct {
	attempted, failed int64
	endToEnd          map[string]float64
	perLayer          map[string]float64
}

// workloads maps each -workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"estimate-interactive": runInteractiveWorkload,
	"estimate-backfill":    runBackfillWorkload,
	"dc-capping":           runCappingWorkload,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: estimate-interactive, estimate-backfill, dc-capping")
		seed    = fs.Int64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds = fs.Float64("seconds", 10, "measured wall seconds per phase")
		trace   = fs.Int("trace", 0, "1 = traced run reporting the per-layer breakdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, log: stdout}
	start := time.Now()
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs, values := endToEnd, rep.endToEnd
	if opts.trace {
		defs, values = perLayer, rep.perLayer
	}
	res := resultJSON{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricJSON{},
	}
	fmt.Fprintf(stdout, "%s: seed %d, %d ops attempted, %d ok, %d failed, fail_ratio %.6f, %.1f s total\n",
		*name, *seed, rep.attempted, rep.attempted-rep.failed, rep.failed,
		ratio(float64(rep.failed), float64(rep.attempted)), time.Since(start).Seconds())
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !opts.trace {
			fmt.Fprintf(stderr, "perfbench: %s did not report %s\n", *name, d.name)
			return 1
		}
		// A per-layer metric of a layer the workload does not exercise
		// is absent and reads 0.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only failed requests make a latency infinite; they are
			// already counted in failed.
			res.Correct = false
			v = math.MaxFloat64
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	if rep.attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operations\n", *name)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// traceOverhead logs how far each traced figure sits from the untraced
// one and returns the largest gap, in percent of the untraced figure.
func traceOverhead(w io.Writer, keys []string, untraced, traced map[string]float64) float64 {
	var worst float64
	for _, k := range keys {
		o := math.Abs(traced[k]-untraced[k]) / untraced[k] * 100
		fmt.Fprintf(w, "  trace overhead %-12s untraced %.4g, traced %.4g (%.1f%%)\n", k, untraced[k], traced[k], o)
		worst = math.Max(worst, o)
	}
	return worst
}
