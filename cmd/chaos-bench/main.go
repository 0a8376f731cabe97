// chaos-bench measures the serving path end to end and writes the
// result as a schema-versioned JSON document (BENCH_serve.json) meant to
// be committed, so performance changes show up in review diffs instead
// of anecdotes.
//
// Each grid cell boots a fresh in-process server (registry + sharded
// batching engine + HTTP listener), replays a fixed-seed simulated
// cluster workload through the public API with the in-repo load
// generator, and records estimates/sec, client and server p50/p99, and
// allocations per estimate. Batch size 1 exercises /v1/estimate; larger
// sizes pack /v1/estimate/batch. A final paired run measures the
// throughput cost of request tracing at the default sampling rate.
//
// The workload is reproducible: the same -seed yields byte-identical
// telemetry (the sha256 workload digest in the output proves it); only
// the timings vary run to run.
//
// Usage:
//
//	chaos-bench -out BENCH_serve.json
//	chaos-bench -quick -out /tmp/bench.json      # CI smoke: small grid
//	chaos-bench -check BENCH_serve.json          # validate an existing file
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Schema identifies the document layout; bump on incompatible change.
const Schema = "chaos-bench/v1"

// Envelope is the header every benchmark document starts with: the
// schema it follows, and the toolchain, host and seed it was measured
// with.
type Envelope struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Seed      int64  `json:"seed"`
}

func newEnvelope(schema string, seed int64) Envelope {
	return Envelope{Schema: schema, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seed: seed}
}

// Doc is the benchmark document written to -out.
type Doc struct {
	Envelope
	Platform  string `json:"platform"`
	Workloads string `json:"workloads"`
	// WorkloadDigest is the sha256 over the replayed power series for
	// every machine count in the grid: rerunning with the same seed must
	// reproduce it exactly.
	WorkloadDigest string    `json:"workload_digest"`
	Snapshots      int       `json:"snapshots_per_cell"`
	Cells          []Cell    `json:"cells"`
	TraceOverhead  *Overhead `json:"trace_overhead,omitempty"`
}

// Cell is one (machines, batch) measurement.
type Cell struct {
	Machines        int     `json:"machines"`
	Batch           int     `json:"batch"`
	Endpoint        string  `json:"endpoint"`
	Snapshots       int     `json:"snapshots"`
	EstimatesPerSec float64 `json:"estimates_per_sec"`
	SnapshotsPerSec float64 `json:"snapshots_per_sec"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	ServerP50Ms     float64 `json:"server_p50_ms"`
	ServerP99Ms     float64 `json:"server_p99_ms"`
	// ServerTailSaturated flags a ServerP99Ms that hit the latency
	// histogram's +Inf bucket — the value is the top finite bound, a
	// floor on the true p99 rather than an estimate.
	ServerTailSaturated bool    `json:"server_tail_saturated,omitempty"`
	AllocsPerEstimate   float64 `json:"allocs_per_estimate"`
	Shed                int     `json:"shed"`
	Late                int     `json:"late"`
	Failed              int     `json:"failed"`
}

// Overhead is the paired tracing-cost measurement: the same cell run
// untraced and traced at the default 1-in-N sampling.
type Overhead struct {
	Machines        int     `json:"machines"`
	Batch           int     `json:"batch"`
	SampleEvery     int     `json:"sample_every"`
	BaseEstPerSec   float64 `json:"base_estimates_per_sec"`
	TracedEstPerSec float64 `json:"traced_estimates_per_sec"`
	OverheadPct     float64 `json:"overhead_pct"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultOut is -out's default: the serving grid's document. The other
// modes write their own document unless -out names one.
const defaultOut = "BENCH_serve.json"

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", defaultOut, "write the benchmark document here")
		check     = fs.String("check", "", "validate an existing benchmark document and exit")
		quick     = fs.Bool("quick", false, "small grid for CI smoke runs")
		seed      = fs.Int64("seed", 7, "simulation seed (fixes the replayed workload)")
		machines  = fs.String("machines", "3,6,12", "comma-separated cluster sizes")
		batches   = fs.String("batches", "1,4,16,64", "comma-separated snapshots-per-request; 1 uses /v1/estimate")
		snapshots = fs.Int("snapshots", 1500, "snapshots replayed per cell (after warmup)")
		platform  = fs.String("platform", "Core2", "simulated platform class")
		workloads = fs.String("workloads", "Prime,Sort", "workload sequence to replay")

		clusterMode = fs.Bool("cluster", false, "benchmark the event-driven datacenter simulator instead of the serving path")
		clusterMs   = fs.String("cluster-machines", "100,1000,20000", "comma-separated fleet sizes for -cluster")
		simSeconds  = fs.Int64("sim-seconds", 3600, "simulated seconds per -cluster cell")

		controlMode = fs.Bool("control", false, "benchmark the model-predictive power-capping loop instead of the serving path")
		controlMs   = fs.String("control-machines", "100,1000,20000", "comma-separated fleet sizes for -control")
		controlSecs = fs.Int64("control-seconds", 1200, "simulated seconds per -control cell")

		overloadMode  = fs.Bool("overload", false, "benchmark priority goodput under overload instead of the serving path")
		overloadLoads = fs.String("overload-loads", "1,2,5", "comma-separated load multiples of pinned capacity for -overload")
		overloadSecs  = fs.Int("overload-seconds", 4, "seconds of offered load per -overload cell")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check != "" {
		if err := checkDoc(*check, stdout); err != nil {
			fmt.Fprintln(stderr, "chaos-bench:", err)
			return 1
		}
		return 0
	}
	// The first mode switched on runs; the serving grid, always on, is
	// the default. Each mode trims its list and per-cell duration under
	// -quick and writes its own document unless -out names one.
	type mode struct {
		on    bool
		list  string
		out   string
		quick func([]int) []int
		run   func(out string, xs []int) error
	}
	modes := []mode{
		{*overloadMode, *overloadLoads, "BENCH_overload.json",
			func(xs []int) []int { *overloadSecs = min(*overloadSecs, 2); return firstTwo(xs) },
			func(out string, xs []int) error { return runOverloadBench(stdout, out, *seed, xs, *overloadSecs) }},
		{*controlMode, *controlMs, "BENCH_control.json",
			func(xs []int) []int { *controlSecs = min(*controlSecs, 300); return xs[:min(len(xs), 2)] },
			func(out string, xs []int) error { return runControlBench(stdout, out, *seed, xs, *controlSecs) }},
		{*clusterMode, *clusterMs, "BENCH_cluster.json",
			func(xs []int) []int { *simSeconds = min(*simSeconds, 300); return xs[:min(len(xs), 2)] },
			func(out string, xs []int) error { return runClusterBench(stdout, out, *seed, xs, *simSeconds) }},
		{true, *machines, defaultOut,
			func(ms []int) []int { *snapshots = min(*snapshots, 300); return ms[:1] },
			func(out string, ms []int) error {
				bs, err := parseInts(*batches)
				if err != nil {
					return err
				}
				if *quick {
					bs = firstTwo(bs)
				}
				return runBench(stdout, out, *seed, ms, bs, *snapshots, *platform, *workloads)
			}},
	}
	i := 0
	for !modes[i].on {
		i++
	}
	m := modes[i]
	xs, err := parseInts(m.list)
	if err == nil {
		if *quick {
			xs = m.quick(xs)
		}
		if *out == defaultOut {
			*out = m.out
		}
		err = m.run(*out, xs)
	}
	if err != nil {
		fmt.Fprintln(stderr, "chaos-bench:", err)
		return 1
	}
	return 0
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad list entry %q", s)
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

func firstTwo(xs []int) []int {
	if len(xs) > 2 {
		return []int{xs[0], xs[len(xs)-1]}
	}
	return xs
}

// simulate builds the fixed-seed replay substrate for one cluster size
// and folds its power series into the digest.
func simulate(platform string, n int, seed int64, workloads []string, digest *floatDigest) ([]*trace.Trace, error) {
	cluster, err := telemetry.New(platform, n, seed)
	if err != nil {
		return nil, err
	}
	traces, err := cluster.RunSequence(workloads, 10, 3000, 0)
	if err != nil {
		return nil, err
	}
	for _, t := range traces {
		digest.WriteFloats(t.Power)
	}
	return traces, nil
}

// fitModel trains the linear cluster model every cell serves.
func fitModel(traces []*trace.Trace) (*models.ClusterModel, error) {
	spec := core.ClusterSpec([]string{counters.CPUTotal, counters.CPUFreqCore0})
	var train []*trace.Trace
	for _, t := range traces {
		train = append(train, trace.Subsample(t, 2))
	}
	mm, err := models.FitMachineModel(models.TechLinear, train, spec,
		models.FitOptions{FreqCol: spec.FreqInputIndex()})
	if err != nil {
		return nil, err
	}
	return models.NewClusterModel(mm)
}

// cellServer boots a fresh engine + listener for one measurement.
func cellServer(cm *models.ClusterModel, names []string, traceStore *obs.TraceStore, sampleEvery int) (close func(), addr string, err error) {
	reg := registry.New()
	if err := reg.Add("v1", cm, registry.Meta{Description: "bench", Source: "sim"}); err != nil {
		return nil, "", err
	}
	srv, err := serve.New(reg, serve.Config{
		Shards: 4, QueueDepth: 8192, BatchMax: 256,
		Names: names, Traces: traceStore, TraceSample: sampleEvery,
	})
	if err != nil {
		return nil, "", err
	}
	httpSrv, err := serve.Serve("127.0.0.1:0", srv)
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	return func() { httpSrv.Close(); srv.Close() }, httpSrv.Addr(), nil
}

// measure replays one cell and returns its stats plus allocations per
// estimate (end to end: client encode + server decode/predict/encode).
func measure(addr string, traces []*trace.Trace, batch, snapshots int) (*serve.LoadStats, float64, error) {
	base := "http://" + addr
	// Warmup: fill connection pools and JIT the steady state.
	warm := snapshots / 10
	if warm < 50 {
		warm = 50
	}
	if _, err := serve.RunLoadGen(serve.LoadGenConfig{
		TargetURL: base, Traces: traces, Snapshots: warm, Clients: 4, Batch: batch,
	}); err != nil {
		return nil, 0, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := serve.RunLoadGen(serve.LoadGenConfig{
		TargetURL: base, Traces: traces, Snapshots: snapshots, Clients: 4, Batch: batch,
	})
	if err != nil {
		return nil, 0, err
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(max(stats.Samples, 1))
	return stats, allocs, nil
}

func runBench(w io.Writer, out string, seed int64, ms, bs []int, snapshots int, platform, workloadCSV string) error {
	workloads := strings.Split(workloadCSV, ",")
	digest := newDigest()
	doc := &Doc{
		Envelope: newEnvelope(Schema, seed),
		Platform: platform, Workloads: workloadCSV, Snapshots: snapshots,
	}

	type sized struct {
		traces []*trace.Trace
		model  *models.ClusterModel
	}
	sizes := make(map[int]sized, len(ms))
	for _, m := range ms {
		traces, err := simulate(platform, m, seed, workloads, digest)
		if err != nil {
			return err
		}
		cm, err := fitModel(traces)
		if err != nil {
			return err
		}
		sizes[m] = sized{traces, cm}
	}
	doc.WorkloadDigest = digest.Hex()

	for _, m := range ms {
		sz := sizes[m]
		for _, b := range bs {
			closeSrv, addr, err := cellServer(sz.model, sz.traces[0].Names, nil, 0)
			if err != nil {
				return err
			}
			stats, allocs, err := measure(addr, sz.traces, b, snapshots)
			closeSrv()
			if err != nil {
				return err
			}
			endpoint := "/v1/estimate/batch"
			if b == 1 {
				endpoint = "/v1/estimate"
			}
			cell := Cell{
				Machines: m, Batch: b, Endpoint: endpoint, Snapshots: stats.Snapshots,
				EstimatesPerSec: round1(stats.SamplesPerSec),
				SnapshotsPerSec: round1(stats.SnapshotsPerSec),
				P50Ms:           roundMs(stats.LatencyP50), P99Ms: roundMs(stats.LatencyP99),
				ServerP50Ms: roundMs(stats.ServerP50), ServerP99Ms: roundMs(stats.ServerP99),
				ServerTailSaturated: stats.ServerTailSaturated,
				AllocsPerEstimate:   math.Round(allocs*10) / 10,
				Shed:                stats.Shed, Late: stats.Late, Failed: stats.Failed,
			}
			doc.Cells = append(doc.Cells, cell)
			fmt.Fprintf(w, "machines=%-3d batch=%-3d %10.0f est/s  p99 %-8s allocs/est %.1f\n",
				m, b, stats.SamplesPerSec, stats.LatencyP99, allocs)
		}
	}

	// Tracing overhead: the mid-size cluster at a mid batch, untraced vs
	// traced at the default 1-in-16 sampling with a production-sized ring.
	om, ob := ms[len(ms)/2], midBatch(bs)
	sz := sizes[om]
	// Interleave base/traced repetitions and keep each side's best, so
	// scheduler noise does not masquerade as tracing cost.
	var pair [2]float64
	for rep := 0; rep < 3; rep++ {
		for i, sample := range []int{-1, 0} { // -1 disables, 0 takes the default
			var ts *obs.TraceStore
			if i == 1 {
				ts = obs.NewTraceStore(256, 250*time.Millisecond)
			}
			closeSrv, addr, err := cellServer(sz.model, sz.traces[0].Names, ts, sample)
			if err != nil {
				return err
			}
			stats, _, err := measure(addr, sz.traces, ob, snapshots)
			closeSrv()
			if err != nil {
				return err
			}
			if stats.SamplesPerSec > pair[i] {
				pair[i] = stats.SamplesPerSec
			}
		}
	}
	doc.TraceOverhead = &Overhead{
		Machines: om, Batch: ob, SampleEvery: 16,
		BaseEstPerSec:   round1(pair[0]),
		TracedEstPerSec: round1(pair[1]),
		OverheadPct:     math.Round((pair[0]-pair[1])/pair[0]*1000) / 10,
	}
	fmt.Fprintf(w, "tracing overhead at machines=%d batch=%d: %.1f%% (%.0f -> %.0f est/s)\n",
		om, ob, doc.TraceOverhead.OverheadPct, pair[0], pair[1])

	return writeDoc(w, out, doc, len(doc.Cells), "digest "+doc.WorkloadDigest[:12])
}

func midBatch(bs []int) int {
	for _, b := range bs {
		if b > 1 {
			return b
		}
	}
	return bs[0]
}

func round1(v float64) float64        { return math.Round(v*10) / 10 }
func roundMs(d time.Duration) float64 { return math.Round(d.Seconds()*1e5) / 100 }

// writeDoc writes doc to out as indented JSON and reports the file.
func writeDoc(w io.Writer, out string, doc any, cells int, note string) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d cells, %s)\n", out, cells, note)
	return nil
}

// verifyRepro reruns a document's smallest cell and requires the rerun
// to reproduce the first run's digest bit for bit; what names the cell.
func verifyRepro(what, digest string, rerun func() (string, error)) error {
	again, err := rerun()
	if err != nil {
		return err
	}
	if again != digest {
		return fmt.Errorf("%s not reproducible: digest %s then %s", what, digest, again)
	}
	return nil
}

// contracts maps each schema to its own contract check, and records
// whether its documents carry a repro_verified proof.
var contracts = map[string]struct {
	repro bool
	check func(path string, data []byte, w io.Writer) error
}{
	Schema:         {false, contract(checkServeDoc)},
	ClusterSchema:  {true, contract(checkClusterDoc)},
	ControlSchema:  {true, contract(checkControlDoc)},
	OverloadSchema: {true, contract(checkOverloadDoc)},
}

// contract adapts a schema's typed contract check to the raw document.
func contract[D any](check func(path string, doc *D, w io.Writer) error) func(string, []byte, io.Writer) error {
	return func(path string, data []byte, w io.Writer) error {
		var doc D
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return check(path, &doc, w)
	}
}

// checkDoc validates a benchmark document. CI runs it against both the
// committed files and fresh -quick output. The envelope checks every
// schema shares run here — a known schema, at least one cell, and the
// repro proof where the schema has one — then the document's schema
// picks its contract check.
func checkDoc(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var env struct {
		Envelope
		ReproVerified bool              `json:"repro_verified"`
		Cells         []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	c, ok := contracts[env.Schema]
	switch {
	case !ok:
		return fmt.Errorf("%s: unknown schema %q", path, env.Schema)
	case len(env.Cells) == 0:
		return fmt.Errorf("%s: no cells", path)
	case c.repro && !env.ReproVerified:
		return fmt.Errorf("%s: repro_verified is false", path)
	}
	return c.check(path, data, w)
}

// checkServeDoc is the serving grid's contract: a workload digest, and
// every cell with throughput, an ordered tail and no failed snapshots.
func checkServeDoc(path string, doc *Doc, w io.Writer) error {
	if len(doc.WorkloadDigest) != 64 {
		return fmt.Errorf("%s: missing workload digest", path)
	}
	machines, batches := map[int]bool{}, map[int]bool{}
	for i, c := range doc.Cells {
		machines[c.Machines], batches[c.Batch] = true, true
		if c.EstimatesPerSec <= 0 || c.Snapshots <= 0 {
			return fmt.Errorf("%s: cell %d has no throughput", path, i)
		}
		if c.P99Ms < c.P50Ms {
			return fmt.Errorf("%s: cell %d p99 < p50", path, i)
		}
		if c.Failed > 0 {
			return fmt.Errorf("%s: cell %d recorded %d failed snapshots", path, i, c.Failed)
		}
	}
	fmt.Fprintf(w, "%s: ok — %d cells, %d machine count(s) x %d batch size(s)\n",
		path, len(doc.Cells), len(machines), len(batches))
	return nil
}

// digest accumulates float series into one sha256.
type floatDigest struct {
	h   [32]byte
	buf []byte
}

func newDigest() *floatDigest { return &floatDigest{} }

func (d *floatDigest) WriteFloats(xs []float64) {
	for _, x := range xs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.buf = append(d.buf, b[:]...)
	}
}

func (d *floatDigest) Hex() string {
	sum := sha256.Sum256(d.buf)
	return fmt.Sprintf("%x", sum)
}
