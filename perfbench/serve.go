package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counters"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Serve-workload shape. Every figure here is part of the benchmark's
// definition; changing one changes what the benchmark measures.
const (
	clusterMachines   = 12  // machines per interactive snapshot
	backfillMachines  = 4   // machines per backfill snapshot: a batch's 3 spans per sample stay under a trace's 256
	backfillSnapshots = 20  // snapshots per backfill request
	interactivePool   = 256 // distinct pre-encoded interactive requests
	backfillPool      = 32  // distinct pre-encoded backfill requests
	interactiveRate   = 100 // interactive arrivals per second
	senders           = 2   // sender goroutines and connections
	swapEvery         = 8   // backfill: activate the other version every N requests
	setupRepeats      = 3   // set-ups per run; setup_s is their median
)

// servePlatforms are the snapshot cluster's platform classes, assigned
// round-robin so every rack-sized prefix mixes platforms.
var servePlatforms = []string{"XeonSAS", "Opteron", "Core2"}

// modelCounters is the lag-free per-platform feature set: seven counters,
// the size Algorithm 1 selects on the simulated platforms (EXPERIMENTS.md,
// Table II and deviation 2).
var modelCounters = []string{
	counters.CPUTotal,
	counters.CPUFreqCore0,
	`System\System Calls/sec`,
	counters.FSPinReads,
	counters.MemCommitted,
	`PhysicalDisk(_Total)\Avg. Disk Queue Length`,
	`Process(_Total)\IO Write Bytes/sec`,
}

// versions are the two admitted model versions the backfill workload
// alternates between: different techniques over the same counters.
var versions = []struct {
	name string
	tech models.Technique
}{
	{"v1", models.TechLinear},
	{"v2", models.TechQuadratic},
}

// snapshot is one cluster second inside a request, with the estimate
// every model version must answer for each machine.
type snapshot struct {
	ids  []string
	want map[string][]float64 // version -> watts, aligned with ids
}

// request is one pre-encoded HTTP body and the snapshots it carries.
type request struct {
	body    []byte
	snaps   []snapshot
	samples int
}

// serveInputs is everything a serve workload builds before measuring.
type serveInputs struct {
	reg   *registry.Registry
	names []string
	reqs  []request
}

// buildServeInputs simulates the seeded cluster, fits both model
// versions per platform, and encodes the request pool. batch selects the
// backfill shape; otherwise requests are single interactive snapshots.
func buildServeInputs(seed int64, batch bool) (*serveInputs, error) {
	plats := make([]string, clusterMachines)
	for i := range plats {
		plats[i] = servePlatforms[i%len(servePlatforms)]
	}
	tc, err := telemetry.NewHeterogeneous(plats, seed)
	if err != nil {
		return nil, err
	}
	traces, err := tc.RunSequence([]string{"Prime", "Sort"}, 10, 3000, 0)
	if err != nil {
		return nil, err
	}
	reg := registry.New()
	spec := models.FeatureSpec{Name: "bench", Counters: modelCounters}
	for _, v := range versions {
		var mms []*models.MachineModel
		for _, p := range servePlatforms {
			var train []*trace.Trace
			for i, t := range traces {
				if plats[i] == p {
					train = append(train, trace.Subsample(t, 2))
				}
			}
			mm, err := models.FitMachineModel(v.tech, train, spec,
				models.FitOptions{FreqCol: spec.FreqInputIndex(), MaxKnots: 8})
			if err != nil {
				return nil, fmt.Errorf("fit %s on %s: %w", v.tech, p, err)
			}
			mms = append(mms, mm)
		}
		cm, err := models.NewClusterModel(mms...)
		if err != nil {
			return nil, err
		}
		if err := reg.Add(v.name, cm, registry.Meta{Description: string(v.tech), Source: "perfbench"}); err != nil {
			return nil, err
		}
	}
	if err := reg.Activate(versions[0].name); err != nil {
		return nil, err
	}
	ref, err := newReference(reg, traces[0].Names)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{reg: reg, names: traces[0].Names}
	rng := rand.New(rand.NewSource(seed))
	seconds := traces[0].Len()
	for i := 0; i < len(traces); i++ {
		if traces[i].Len() != seconds {
			return nil, fmt.Errorf("machine traces differ in length")
		}
	}
	snap := func(t, machines int, prio string) (serve.EstimateRequest, snapshot) {
		er := serve.EstimateRequest{Priority: prio}
		sn := snapshot{want: map[string][]float64{}}
		for m := 0; m < machines; m++ {
			tr := traces[m]
			row := tr.X.Row(t)
			er.Samples = append(er.Samples, serve.SampleJSON{MachineID: tr.MachineID, Platform: tr.Platform, Counters: row})
			sn.ids = append(sn.ids, tr.MachineID)
			for _, v := range versions {
				sn.want[v.name] = append(sn.want[v.name], ref.watts(v.name, tr.Platform, row))
			}
		}
		return er, sn
	}
	if !batch {
		for i := 0; i < interactivePool; i++ {
			er, sn := snap(rng.Intn(seconds), clusterMachines, "")
			body, err := json.Marshal(er)
			if err != nil {
				return nil, err
			}
			in.reqs = append(in.reqs, request{body: body, snaps: []snapshot{sn}, samples: clusterMachines})
		}
		return in, nil
	}
	for i := 0; i < backfillPool; i++ {
		start := rng.Intn(seconds - backfillSnapshots)
		var br serve.BatchRequest
		req := request{samples: backfillSnapshots * backfillMachines}
		for t := start; t < start+backfillSnapshots; t++ {
			er, sn := snap(t, backfillMachines, "batch")
			br.Requests = append(br.Requests, er)
			req.snaps = append(req.snaps, sn)
		}
		if req.body, err = json.Marshal(br); err != nil {
			return nil, err
		}
		in.reqs = append(in.reqs, req)
	}
	return in, nil
}

// reference computes offline estimates straight from the fitted models:
// the spec's counters picked out of the full-width sample, then the
// model's Predict. Lag-free specs make this a pure function of
// (version, sample), so a served estimate must equal it bit for bit.
type reference struct {
	reg   *registry.Registry
	index map[string]int
}

func newReference(reg *registry.Registry, names []string) (*reference, error) {
	r := &reference{reg: reg, index: map[string]int{}}
	for i, n := range names {
		r.index[n] = i
	}
	for _, v := range versions {
		e, ok := reg.Get(v.name)
		if !ok {
			return nil, fmt.Errorf("version %s missing", v.name)
		}
		for p, mm := range e.Model.ByPlatform {
			if mm.Spec.NumInputs() != len(mm.Spec.Counters) {
				return nil, fmt.Errorf("%s/%s: lagged spec, estimates would depend on arrival order", v.name, p)
			}
			for _, c := range mm.Spec.Counters {
				if _, ok := r.index[c]; !ok {
					return nil, fmt.Errorf("%s/%s: counter %q not in the stream", v.name, p, c)
				}
			}
		}
	}
	return r, nil
}

func (r *reference) watts(version, platform string, counters []float64) float64 {
	e, _ := r.reg.Get(version)
	mm := e.Model.ByPlatform[platform]
	row := make([]float64, len(mm.Spec.Counters))
	for i, c := range mm.Spec.Counters {
		row[i] = counters[r.index[c]]
	}
	return mm.Model.Predict(row)
}

// verify checks one answered snapshot against the reference and
// returns how many of its machines were answered. The response's model
// version may name two versions ("v1+v2") when a swap landed
// mid-snapshot; each machine must then match one of them.
func verify(sn snapshot, resp serve.EstimateResponse) (int, error) {
	if resp.Status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.Status, resp.Error)
	}
	if len(resp.PerMachine) != len(sn.ids) {
		return len(resp.PerMachine), fmt.Errorf("%d machines answered, want %d", len(resp.PerMachine), len(sn.ids))
	}
	served := strings.Split(resp.ModelVersion, "+")
	for i, id := range sn.ids {
		got, ok := resp.PerMachine[id]
		if !ok {
			return len(sn.ids), fmt.Errorf("machine %s missing", id)
		}
		match := false
		for _, v := range served {
			if want, ok := sn.want[v]; ok && math.Float64bits(want[i]) == math.Float64bits(got) {
				match = true
				break
			}
		}
		if !match {
			return len(sn.ids), fmt.Errorf("machine %s: %v from %q matches no reference", id, got, resp.ModelVersion)
		}
	}
	return len(sn.ids), nil
}

// serverHarness is one running chaos-serve-equivalent server plus the
// benchmark's HTTP client.
type serverHarness struct {
	srv    *serve.Server
	http   *serve.HTTPServer
	url    string
	client *http.Client
	tr     *http.Transport
	tracer *handlerTracer // nil unless traced
}

// startServer starts a server over the inputs' registry with
// chaos-serve's flag defaults (4 shards, 256-deep queues, 2 ms batch
// window, 64-sample batches, 250 ms deadline, 256 kept traces, 1-in-16
// trace sampling, no -overload). The traced run samples every request
// instead and wraps the mux to time each handler call.
//
// Adaptive admission (-overload) stays off: at its defaults it sheds
// most 12-machine interactive snapshots even at 50 requests/s, so a
// workload with it on cannot run without failed requests.
func startServer(in *serveInputs, traced bool) (*serverHarness, error) {
	if err := in.reg.Activate(versions[0].name); err != nil {
		return nil, err
	}
	store := obs.NewTraceStore(256, 250*time.Millisecond)
	cfg := serve.Config{
		Shards: 4, QueueDepth: 256, BatchWindow: 2 * time.Millisecond, BatchMax: 64,
		Deadline: 250 * time.Millisecond, Names: in.names,
		Traces: store, TraceSample: 16,
	}
	if traced {
		cfg.TraceSample = 1
	}
	s, err := serve.New(in.reg, cfg)
	if err != nil {
		return nil, err
	}
	h := &serverHarness{srv: s}
	var handler http.Handler = serve.NewMux(s)
	if traced {
		h.tracer = newHandlerTracer(handler, store)
		handler = h.tracer
	}
	if h.http, err = serve.ServeHandler("127.0.0.1:0", handler); err != nil {
		s.Close()
		return nil, err
	}
	h.url = "http://" + h.http.Addr()
	h.tr = &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	h.client = &http.Client{Transport: h.tr, Timeout: 30 * time.Second}
	return h, nil
}

func (h *serverHarness) close() {
	h.tr.CloseIdleConnections()
	h.http.Close()
	h.srv.Close()
	if h.tracer != nil {
		h.tracer.close()
	}
}

// post sends one pre-encoded body and decodes the JSON answer. Any
// transport error or non-200 status is an error.
func (h *serverHarness) post(path string, body []byte, out any) error {
	resp, err := h.client.Post(h.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// send posts request r to the endpoint matching its shape, verifies
// every snapshot in the answer, and returns how many machine-samples
// came back with status 200. Any failure or mismatch fails the request.
func (h *serverHarness) send(r request) (int, error) {
	if len(r.snaps) == 1 {
		var resp serve.EstimateResponse
		if err := h.post("/v1/estimate", r.body, &resp); err != nil {
			return 0, err
		}
		return verify(r.snaps[0], resp)
	}
	var resp serve.BatchResponse
	if err := h.post("/v1/estimate/batch", r.body, &resp); err != nil {
		return 0, err
	}
	if len(resp.Results) != len(r.snaps) {
		return 0, fmt.Errorf("%d results for %d snapshots", len(resp.Results), len(r.snaps))
	}
	answered := 0
	var first error
	for i, sn := range r.snaps {
		n, err := verify(sn, resp.Results[i])
		answered += n
		if err != nil && first == nil {
			first = fmt.Errorf("snapshot %d: %w", i, err)
		}
	}
	return answered, first
}

// serveCounters are the obs series the serve metrics are deltas of.
type serveCounters struct {
	builds, samples, predictSum, batchSum, batchCount, admitted, shed float64
}

func readServeCounters() serveCounters {
	reg := obs.Default()
	var c serveCounters
	c.builds = reg.Counter("chaos_serve_predictor_builds_total", nil).Value()
	c.samples = reg.Counter("chaos_serve_samples_total", nil).Value()
	c.predictSum = reg.Histogram("chaos_predict_seconds", nil, obs.ExpBuckets(1e-7, 4, 14)).Sum()
	bs := reg.Histogram("chaos_serve_batch_size", nil, obs.ExpBuckets(1, 2, 10))
	c.batchSum, c.batchCount = bs.Sum(), float64(bs.Count())
	for _, p := range []string{"interactive", "batch", "background"} {
		c.admitted += reg.Counter("chaos_admitted_total", obs.Labels{"priority": p}).Value()
		c.shed += reg.Counter("chaos_shed_total", obs.Labels{"priority": p}).Value()
	}
	return c
}

func (c serveCounters) sub(o serveCounters) serveCounters {
	return serveCounters{
		builds: c.builds - o.builds, samples: c.samples - o.samples,
		predictSum: c.predictSum - o.predictSum,
		batchSum:   c.batchSum - o.batchSum, batchCount: c.batchCount - o.batchCount,
		admitted: c.admitted - o.admitted, shed: c.shed - o.shed,
	}
}

// servePhase is one measured phase of a serve workload.
type servePhase struct {
	latencies  []float64 // ms per request; +Inf for a failed request
	lags       []float64 // ms the sender ran late (interactive only)
	activateMS []float64 // timed registry.Activate calls (backfill only)
	attempted  int64     // requests and version swaps
	failed     int64
	estimates  float64 // machine-samples answered and verified
	answered   float64 // machine-samples answered with status 200
	snapshots  float64
	requests   float64
	offered    float64 // machine-samples sent
	wall       float64 // seconds from phase start to the last answer
	// doneAt and doneEst give each verified request's completion time (s
	// after phase start) and machine-samples; closed loops
	// report rates as medians over windows of them.
	doneAt, doneEst []float64
	closedLoop      bool
	firstErr        error
	rt              probeResult
	counters        serveCounters
	traced          *serveBreakdown
}

// phaseRecorder books request outcomes into a phase; safe for
// concurrent senders.
type phaseRecorder struct {
	mu sync.Mutex
	p  *servePhase
}

func (rec *phaseRecorder) add(r request, answered int, doneAt, latency, lag time.Duration, err error, hasLag bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	p := rec.p
	p.attempted++
	p.offered += float64(r.samples)
	p.answered += float64(answered)
	p.wall = math.Max(p.wall, doneAt.Seconds())
	if hasLag {
		p.lags = append(p.lags, ms(lag))
	}
	if err != nil {
		p.failed++
		p.latencies = append(p.latencies, math.Inf(1))
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	p.latencies = append(p.latencies, ms(latency))
	p.doneAt = append(p.doneAt, doneAt.Seconds())
	p.doneEst = append(p.doneEst, float64(r.samples))
	p.estimates += float64(r.samples)
	p.snapshots += float64(len(r.snaps))
	p.requests++
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runOpenLoop offers seeded Poisson arrivals at rate per second for
// dur. Arrival times are drawn as a Poisson process conditioned on its
// count (sorted uniform times), so every seed offers exactly the same
// load. Each request is timed from when it was due, so a stalled server
// or a late generator shows in the latency of every request behind it.
func runOpenLoop(h *serverHarness, reqs []request, rate float64, dur time.Duration, seed int64) *servePhase {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := int(rate * dur.Seconds())
	due := make([]time.Duration, n)
	pick := make([]int, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for i := range pick {
		pick[i] = rng.Intn(len(reqs))
	}
	p := &servePhase{}
	rec := &phaseRecorder{p: p}
	before := readServeCounters()
	probe := startProbe()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				answered, err := h.send(reqs[pick[i]])
				done := time.Now()
				rec.add(reqs[pick[i]], answered, done.Sub(start), done.Sub(at), sent.Sub(at), err, true)
			}
		}()
	}
	wg.Wait()
	p.rt = probe.finish()
	p.counters = readServeCounters().sub(before)
	return p
}

// runClosedLoop keeps senders connections busy for dur, each sending
// its next request as soon as the previous one is answered. Every
// swapEvery-th request first activates the other model version, so
// hot-swap writes land alongside estimate reads.
func runClosedLoop(h *serverHarness, reqs []request, dur time.Duration, seed int64) *servePhase {
	rng := rand.New(rand.NewSource(seed ^ 0xbac4))
	order := rng.Perm(len(reqs))
	p := &servePhase{closedLoop: true}
	rec := &phaseRecorder{p: p}
	reg := h.srv.Registry()
	before := readServeCounters()
	probe := startProbe()
	start := time.Now()
	deadline := start.Add(dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i > 0 && i%swapEvery == 0 {
					v := versions[(i/swapEvery)%len(versions)].name
					t0 := time.Now()
					err := reg.Activate(v)
					d := time.Since(t0)
					rec.mu.Lock()
					p.activateMS = append(p.activateMS, ms(d))
					p.attempted++
					if err != nil {
						p.failed++
						if p.firstErr == nil {
							p.firstErr = err
						}
					}
					rec.mu.Unlock()
				}
				r := reqs[order[i%len(order)]]
				t0 := time.Now()
				answered, err := h.send(r)
				done := time.Now()
				rec.add(r, answered, done.Sub(start), done.Sub(t0), 0, err, false)
			}
		}()
	}
	wg.Wait()
	p.rt = probe.finish()
	p.counters = readServeCounters().sub(before)
	return p
}

// measureFunc runs one measured phase against a started server.
type measureFunc func(h *serverHarness, reqs []request, dur time.Duration) *servePhase

// serveRun runs both serve workloads: set-up (repeated setupRepeats
// times untraced, setup_s being the median), one untraced measured phase,
// and with -trace 1 a traced phase over the same inputs.
func serveRun(o options, batch bool, measure measureFunc) (*report, error) {
	repeats := setupRepeats
	if o.trace {
		repeats = 1
	}
	var in *serveInputs
	var setups []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		var err error
		if in, err = buildServeInputs(o.seed, batch); err != nil {
			return nil, err
		}
		h, err := startServer(in, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		h.close()
	}
	rep := &report{}
	p, err := rep.measureServe(o, in, batch, false, measure)
	if err != nil {
		return nil, err
	}
	rep.endToEnd = serveEndToEnd(p, median(setups))
	if !o.trace {
		return rep, nil
	}
	tp, err := rep.measureServe(o, in, batch, true, measure)
	if err != nil {
		return nil, err
	}
	rep.perLayer = servePerLayer(o.log, tp, rep.endToEnd, serveEndToEnd(tp, 0))
	return rep, nil
}

// measureServe starts a server, warms it up with a few verified requests
// (so predictors are built and connections open before timing), runs
// one measured phase and stops the server. Every request counts toward
// the report's attempted and failed operations.
func (rep *report) measureServe(o options, in *serveInputs, batch, traced bool, measure measureFunc) (*servePhase, error) {
	h, err := startServer(in, traced)
	if err != nil {
		return nil, err
	}
	defer h.close()
	warm := 32
	if batch {
		warm = 4
	}
	for i := 0; i < warm; i++ {
		rep.attempted++
		if _, err := h.send(in.reqs[i%len(in.reqs)]); err != nil {
			rep.failed++
			fmt.Fprintln(o.log, "warm-up failure:", err)
		}
	}
	if traced {
		h.tracer.reset()
	}
	p := measure(h, in.reqs, time.Duration(o.seconds*float64(time.Second)))
	if traced {
		p.traced = h.tracer.finish()
	}
	rep.attempted += p.attempted
	rep.failed += p.failed
	if p.firstErr != nil {
		fmt.Fprintln(o.log, "first failure:", p.firstErr)
	}
	label := "untraced"
	if traced {
		label = "traced"
	}
	logServePhase(o.log, label, p)
	return p, nil
}

// rateWindow is how many completions each closed-loop rate is taken over.
const rateWindow = 50

func serveEndToEnd(p *servePhase, setup float64) map[string]float64 {
	rate := func(v float64) float64 { return ratio(v, p.wall) }
	if p.closedLoop {
		// The closed loop's pace is the server's: take the median window,
		// so a burst of outside load moves one window, not the figure.
		est := windowedRate(p.doneAt, p.doneEst, rateWindow)
		rate = func(v float64) float64 { return est * v / p.estimates }
	}
	return map[string]float64{
		"setup_s":              setup,
		"p50_ms":               quantile(p.latencies, 0.50),
		"p99_ms":               quantile(p.latencies, 0.99),
		"est_per_s":            rate(p.estimates),
		"sim_s_per_s":          rate(p.snapshots),
		"events_per_s":         rate(p.requests),
		"compliance_pct":       100 * ratio(p.estimates, p.answered),
		"throughput_retention": ratio(p.estimates, p.offered),
		"peak_heap_mb":         p.rt.peakMB,
		"allocs_per_op":        ratio(p.rt.allocs, float64(len(p.latencies))),
	}
}

func logServePhase(w io.Writer, label string, p *servePhase) {
	fmt.Fprintf(w, "  %s phase: %d requests (%d latency samples), %d failed, %.0f estimates in %.2f s, p50 %.3f ms, p99 %.3f ms",
		label, p.attempted, len(p.latencies), p.failed, p.estimates, p.wall,
		quantile(p.latencies, 0.5), quantile(p.latencies, 0.99))
	if len(p.lags) > 0 {
		fmt.Fprintf(w, ", send lag p99 %.3f ms", quantile(p.lags, 0.99))
	}
	if len(p.activateMS) > 0 {
		fmt.Fprintf(w, ", %d version swaps", len(p.activateMS))
	}
	fmt.Fprintln(w)
}

func runInteractiveWorkload(o options) (*report, error) {
	return serveRun(o, false, func(h *serverHarness, reqs []request, dur time.Duration) *servePhase {
		return runOpenLoop(h, reqs, interactiveRate, dur, o.seed)
	})
}

func runBackfillWorkload(o options) (*report, error) {
	return serveRun(o, true, func(h *serverHarness, reqs []request, dur time.Duration) *servePhase {
		return runClosedLoop(h, reqs, dur, o.seed)
	})
}
