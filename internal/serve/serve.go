// Package serve is the power-prediction serving layer: an HTTP JSON API
// over the versioned model registry, backed by a sharded worker pool
// (sharded by machine ID so per-machine lag history never contends across
// shards) with request batching, bounded queues, 429 backpressure, and
// per-request deadlines. Estimates feed the online drift monitor and the
// obs metrics registry, and model versions hot-swap under load without
// dropping a request: every batch predicts with whichever registry entry
// was active when it was picked up, via one atomic pointer load.
package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/overload"
	"repro/internal/registry"
)

// Serving-path instruments, resolved once; the per-request path pays only
// atomic updates.
var (
	samplesServed  = obs.Default().Counter("chaos_serve_samples_total", nil)
	shedTotal      = obs.Default().Counter("chaos_serve_shed_total", nil)
	deadlineTotal  = obs.Default().Counter("chaos_serve_deadline_exceeded_total", nil)
	batchSizeHist  = obs.Default().Histogram("chaos_serve_batch_size", nil, obs.ExpBuckets(1, 2, 10))
	serveDrift     = obs.Default().Counter("chaos_serve_drift_alarms_total", nil)
	swapPredictors = obs.Default().Counter("chaos_serve_predictor_builds_total", nil)
)

// Why a worker ended a batch fill: it reached BatchMax, the fill window
// ran out, it reached a push-marked sample, or the queue closed.
var (
	closeFull   = batchClose("full")
	closeWindow = batchClose("window")
	closePush   = batchClose("push")
	closeClosed = batchClose("closed")
)

func batchClose(reason string) *obs.Counter {
	return obs.Default().Counter("chaos_serve_batch_close_total", obs.Labels{"reason": reason})
}

// Config tunes the serving engine. Zero values take defaults.
type Config struct {
	// Shards is the number of worker shards; samples route to a shard by
	// machine-ID hash so one machine's lag history lives on one shard.
	Shards int
	// QueueDepth bounds each shard's queue. A full queue sheds (429).
	QueueDepth int
	// BatchWindow is the longest a worker waits to accumulate more samples
	// after the first arrives. A /v1/estimate/batch payload does not wait
	// it out: once the payload has queued all its samples, each shard it
	// touched predicts what is queued. Single snapshots (Estimate,
	// /v1/estimate, a dist node's local cluster slice) wait the full
	// window, which is what lets concurrent clients share a batch.
	BatchWindow time.Duration
	// BatchMax caps samples per predictor batch.
	BatchMax int
	// Deadline is the default per-request deadline (overridable per
	// request); samples still queued past it are answered with a
	// deadline-exceeded error instead of occupying the pool.
	Deadline time.Duration
	// Names is the counter order of incoming sample rows.
	Names []string
	// BaselineRMSE, when positive, enables the drift monitor over
	// requests that carry metered watts.
	BaselineRMSE float64
	// DriftThreshold is the monitor alarm level in baseline units
	// (default 16).
	DriftThreshold float64
	// Events, when set, receives drift/activation events as JSON lines.
	Events *obs.EventSink
	// Labeled, when set, receives every fully-served snapshot that carried
	// complete meter readings: the samples, the per-machine metered watts,
	// the cluster estimate answered, and the model version that served it
	// (so a post-swap consumer can tell which model earned the residual).
	// The lifecycle orchestrator hangs its retrain buffers, held-out
	// scoring window, and probation accounting off this hook. It is called
	// from the request goroutine after the response is complete, so it
	// must be cheap (the lifecycle hook copies and returns).
	Labeled func(samples []online.Sample, metered []float64, estimated float64, version string)
	// ShadowObserve, when set, receives one mirrored score per fully
	// shadowed metered snapshot: the champion's cluster estimate, the
	// shadow challenger's (computed in the shards, never returned to
	// clients), and the metered cluster watts.
	ShadowObserve func(champion, challenger, actual float64)
	// Traces, when set, enables request-scoped tracing: sampled requests
	// (and every request carrying a traceparent header) record queue /
	// batch / predict / respond spans into this store, retrievable at
	// /debug/traces.
	Traces *obs.TraceStore
	// TraceSample traces 1 in N requests that did not supply their own
	// traceparent. 0 takes the default (16); negative disables sampling
	// (caller-identified requests still trace).
	TraceSample int
	// Observer, when set, receives per-request latencies and per-machine
	// labeled outcomes — the SLO tracker's feed. Calls happen on the
	// request goroutine, so implementations must be cheap.
	Observer Observer
	// Overload, when set, enables adaptive admission control: one AIMD
	// concurrency limiter per shard (gradient on observed queue+predict
	// latency against a rolling baseline), strict-priority shedding, and
	// the brownout ladder. When nil the engine keeps the static behavior:
	// the bounded queue is the only defense.
	Overload *overload.Config
	// PredictStall, when positive, sleeps this long inside every batch
	// predict. It is a chaos/benchmark knob that pins the engine's
	// capacity analytically (≈ Shards × BatchMax / PredictStall samples
	// per second) so overload experiments are deterministic across
	// hardware. Never set it in production configs.
	PredictStall time.Duration
	// Owner, when set, is the distributed-mode partition check: it reports
	// which peer owns a machine ID and whether that peer is this node.
	// Direct estimates for non-owned machines are rejected with 421 and a
	// redirect hint instead of being served from predictors whose lag
	// history lives on another node.
	Owner func(machineID string) (peer, addr string, local bool)
}

// Observer is the serving engine's outcome feed: request latencies per
// endpoint and fully-labeled snapshots with their per-machine estimates.
// The slo package implements it; keeping it an interface here means serve
// never imports slo.
type Observer interface {
	// ObserveRequest is called once per HTTP estimation request with the
	// endpoint name ("estimate" or "estimate_batch"), the handler
	// duration, and the HTTP status answered.
	ObserveRequest(endpoint string, d time.Duration, status int)
	// ObserveLabeled is called for every fully-served snapshot that
	// carried complete meter readings, with aligned per-machine slices.
	ObserveLabeled(machineIDs []string, estimated, metered []float64, clusterEst float64, version string)
}

func (c Config) withDefaults() (Config, error) {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.Deadline <= 0 {
		c.Deadline = 250 * time.Millisecond
	}
	if len(c.Names) == 0 {
		return c, fmt.Errorf("serve: config needs the counter name order")
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 16
	}
	if c.TraceSample == 0 {
		c.TraceSample = 16
	}
	return c, nil
}

// taskResult is one sample's outcome. shadowWatts carries the shadow
// challenger's prediction for the same sample when a mirror is active; it
// never reaches the response payload.
type taskResult struct {
	watts       float64
	version     string
	err         error
	shed        bool
	late        bool
	shadowWatts float64
	shadowOK    bool
}

// flight is one snapshot between the two halves of an estimate: scatter
// admits it and queues its samples, whose tasks write their result slot
// and signal the WaitGroup; gather waits for all of them. err, when
// scatter sets it, is the whole answer: the snapshot never reached a
// queue, and res (possibly nil) goes back as is.
type flight struct {
	req     Request
	wg      sync.WaitGroup
	results []taskResult
	res     *Result
	err     error
}

// task is one sample queued on a shard. enqueued/dequeued bound the queue
// wait; at, when non-nil, is the request trace the worker records span
// timings into.
type task struct {
	sample   online.Sample
	deadline time.Time
	idx      int
	req      *flight
	sh       *shard
	enqueued time.Time
	dequeued time.Time
	at       *obs.ActiveTrace
	// acquired means this sample holds one unit of its shard's adaptive
	// limiter and must release it exactly once on completion.
	acquired bool
	// push marks the last sample a batch payload queues on this shard: the
	// worker that dequeues it stops waiting for the fill window.
	push bool
}

// shard is one worker's queue plus its per-version predictor cache. Each
// machine hashes to exactly one shard, so the shard's predictors own that
// machine's lag history without cross-shard contention.
type shard struct {
	id    int
	queue chan *task
	depth *obs.Gauge

	// preds caches one predictor per model version; only the worker
	// goroutine touches it.
	preds map[string]*online.Predictor
}

// Server is the serving engine. Create with New, stop with Close.
type Server struct {
	reg    *registry.Registry
	cfg    Config
	shards []*shard

	monitor *online.Monitor
	drifted atomic.Bool

	// ov, when non-nil, owns the per-shard adaptive limiters and the
	// brownout ladder (Config.Overload).
	ov *overload.Controller

	// shadow, when non-nil, is the challenger entry every shard mirrors:
	// workers predict it alongside the champion (one extra batch predict on
	// the shard's own goroutine — no new locks) and the gathered cluster
	// score flows to cfg.ShadowObserve. One atomic load per batch.
	shadow atomic.Pointer[registry.Entry]

	lcMu sync.RWMutex // guards lc
	lc   Lifecycle

	ctlMu sync.RWMutex // guards ctl
	ctl   Control

	closeMu sync.RWMutex // guards shard sends vs Close
	closed  bool
	drained int // tasks still queued when Close began, all answered
	wg      sync.WaitGroup
}

// New builds a serving engine over the registry and starts its workers.
func New(reg *registry.Registry, cfg Config) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("serve: nil registry")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{reg: reg, cfg: cfg}
	if cfg.BaselineRMSE > 0 {
		if s.monitor, err = online.NewMonitor(cfg.BaselineRMSE, cfg.DriftThreshold); err != nil {
			return nil, err
		}
	}
	if cfg.Overload != nil {
		ovcfg := *cfg.Overload
		if ovcfg.Events == nil {
			ovcfg.Events = cfg.Events
		}
		s.ov = overload.NewController(cfg.Shards, ovcfg)
		s.ov.Start()
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id:    i,
			queue: make(chan *task, cfg.QueueDepth),
			depth: obs.Default().Gauge("chaos_serve_queue_depth", obs.Labels{"shard": strconv.Itoa(i)}),
			preds: map[string]*online.Predictor{},
		}
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go s.worker(sh)
	}
	return s, nil
}

// Close stops the workers after draining queued tasks (every queued task
// still gets an answer) and makes further estimates fail fast.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	for _, sh := range s.shards {
		s.drained += len(sh.queue)
		close(sh.queue)
	}
	s.closeMu.Unlock()
	s.wg.Wait()
	if s.ov != nil {
		s.ov.Close()
	}
}

// Overload exposes the adaptive admission controller, or nil when
// Config.Overload was unset.
func (s *Server) Overload() *overload.Controller { return s.ov }

// BrownoutLevel returns the current brownout rung (0 when adaptive
// admission is disabled).
func (s *Server) BrownoutLevel() int {
	if s.ov == nil {
		return overload.LevelNormal
	}
	return s.ov.Level()
}

// Drained reports how many tasks were still queued when Close began; all
// of them were answered before Close returned (the ordered-shutdown
// accounting the shutdown event reports).
func (s *Server) Drained() int {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	return s.drained
}

// RetryAfterHint estimates how long a shed client should wait before
// retrying: the deepest shard queue, expressed in batch drains (each
// drain clears up to BatchMax samples per BatchWindow). The hint tracks
// actual backlog, so a briefly-full queue asks for a short pause while a
// deep one spreads the retry storm out.
func (s *Server) RetryAfterHint() time.Duration {
	deepest := 0
	for _, sh := range s.shards {
		if d := len(sh.queue); d > deepest {
			deepest = d
		}
	}
	return time.Duration(deepest/s.cfg.BatchMax+1) * s.cfg.BatchWindow
}

// shardFor routes a machine ID to its shard.
func (s *Server) shardFor(machineID string) *shard {
	h := fnv.New32a()
	h.Write([]byte(machineID))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// Request is one cluster snapshot — one sample per machine — for
// Estimate. Only Samples is required.
type Request struct {
	Samples []online.Sample
	// Deadline bounds the whole snapshot; <= 0 takes Config.Deadline.
	Deadline time.Duration
	// Metered, when it holds one reading per sample, feeds the drift
	// monitor, the shadow score, and the labeled-snapshot hook.
	Metered []float64
	// Trace, when set, rides along with each queued task: the shard
	// workers record queue/batch/predict spans into it as the sample
	// moves through the pipeline.
	Trace *obs.ActiveTrace
	// Priority is the admission class; the zero value is Interactive.
	Priority overload.Priority
}

// Estimate runs one cluster snapshot through the sharded pool and
// gathers the per-machine watts. It returns the summed cluster estimate,
// the per-machine map, and the model version(s) used. Queue overflow
// surfaces as ErrOverloaded, an expired deadline as ErrDeadline. With
// adaptive admission enabled the whole snapshot is admitted or shed
// atomically against each touched shard's limiter, so a partially-shed
// request never burns predictor capacity on samples it cannot answer.
func (s *Server) Estimate(req Request) (*Result, error) {
	f := &flight{req: req}
	s.scatter([]*flight{f}, false)
	return s.gather(f)
}

// scatter admits every flight and queues its samples on their shards, in
// order, from the calling goroutine. With push, the last sample queued on
// each shard is marked so that shard's worker predicts as soon as it gets
// there instead of waiting out the fill window. Marks are placed after
// admission, so a shed snapshot never holds one; if the marked sample
// itself meets a full queue, that shard falls back to the window.
func (s *Server) scatter(fs []*flight, push bool) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	n := 0
	for _, f := range fs {
		n += len(f.req.Samples)
	}
	queued := make([]*task, 0, n)
	for _, f := range fs {
		queued = s.admit(f, queued)
	}
	if push {
		marked := make([]bool, len(s.shards))
		for i := len(queued) - 1; i >= 0; i-- {
			if t := queued[i]; !marked[t.sh.id] {
				marked[t.sh.id] = true
				t.push = true
			}
		}
	}
	now := time.Now()
	for _, t := range queued {
		sh := t.sh
		t.enqueued = now
		select {
		case sh.queue <- t:
			sh.depth.Set(float64(len(sh.queue)))
		default:
			// Bounded queue full: shed instead of queueing unboundedly.
			if t.acquired {
				s.ov.LimiterFor(sh.id).Cancel(1)
			}
			shedTotal.Inc()
			t.at.Span("shed", t.enqueued, 0, obs.String("machine", t.sample.MachineID))
			t.req.results[t.idx] = taskResult{shed: true}
			t.req.wg.Done()
		}
	}
}

// admit validates one snapshot and takes its limiter share, appending its
// tasks to queued. A snapshot that cannot be queued gets its answer in
// f.err instead. The caller holds closeMu for reading.
func (s *Server) admit(f *flight, queued []*task) []*task {
	samples, deadline, at, prio := f.req.Samples, f.req.Deadline, f.req.Trace, f.req.Priority
	if len(samples) == 0 {
		f.err = fmt.Errorf("serve: no samples")
		return queued
	}
	if s.closed {
		f.err = fmt.Errorf("serve: server closed")
		return queued
	}
	if deadline <= 0 {
		deadline = s.cfg.Deadline
	}
	now := time.Now()
	due := now.Add(deadline)
	if s.ov != nil {
		// All-or-nothing admission: count this snapshot's samples per
		// shard, then acquire each shard's share atomically. On any
		// refusal, roll back what was acquired and shed the request with
		// the limiter's backoff hint.
		counts := make([]int, len(s.shards))
		for i := range samples {
			counts[s.shardFor(samples[i].MachineID).id]++
		}
		for id, n := range counts {
			if n == 0 {
				continue
			}
			dec := s.ov.LimiterFor(id).AcquireN(prio, n)
			if dec.Admit {
				continue
			}
			for j := 0; j < id; j++ {
				if counts[j] > 0 {
					s.ov.LimiterFor(j).Cancel(counts[j])
				}
			}
			shedTotal.Add(float64(len(samples)))
			at.Span("shed", now, 0, obs.String("reason", "limiter"),
				obs.String("priority", prio.String()))
			f.res, f.err = &Result{Shed: len(samples), RetryAfter: dec.RetryAfter}, ErrOverloaded
			return queued
		}
	}
	f.results = make([]taskResult, len(samples))
	f.wg.Add(len(samples))
	for i := range samples {
		queued = append(queued, &task{sample: samples[i], deadline: due, idx: i, req: f,
			sh: s.shardFor(samples[i].MachineID), at: at, acquired: s.ov != nil})
	}
	return queued
}

// gather waits for every queued sample of a scattered flight and sums
// them into its Result.
func (s *Server) gather(f *flight) (*Result, error) {
	if f.err != nil {
		return f.res, f.err
	}
	f.wg.Wait()
	samples := f.req.Samples
	res := &Result{PerMachine: make(map[string]float64, len(samples))}
	versions := map[string]bool{}
	var shadowSum float64
	shadowN := 0
	for i, tr := range f.results {
		switch {
		case tr.shed:
			res.Shed++
		case tr.late:
			res.Late++
		case tr.err != nil:
			res.Err = tr.err
		default:
			res.PerMachine[samples[i].MachineID] = tr.watts
			res.ClusterWatts += tr.watts
			versions[tr.version] = true
			if tr.shadowOK {
				shadowSum += tr.shadowWatts
				shadowN++
			}
		}
	}
	for v := range versions {
		res.Versions = append(res.Versions, v)
	}
	sort.Strings(res.Versions)
	if res.Shed > 0 {
		return res, ErrOverloaded
	}
	if res.Late > 0 {
		return res, ErrDeadline
	}
	if res.Err != nil {
		return res, res.Err
	}
	s.observe(res, samples, f.req.Metered, shadowSum, shadowN)
	return res, nil
}

// observe feeds a fully-served snapshot with complete meter readings into
// the drift monitor, the shadow-mirror score stream, and the labeled-
// snapshot hook.
func (s *Server) observe(res *Result, samples []online.Sample, metered []float64, shadowSum float64, shadowN int) {
	if len(metered) != len(samples) {
		return
	}
	var actual float64
	for _, w := range metered {
		actual += w
	}
	if s.monitor != nil && s.monitor.Observe(res.ClusterWatts, actual) && !s.drifted.Swap(true) {
		serveDrift.Inc()
		if s.cfg.Events != nil {
			s.cfg.Events.Emit("drift", map[string]any{ //nolint:errcheck // telemetry only
				"residual_x": s.monitor.EWMA(),
				"source":     "serve",
			})
		}
	}
	// Only fully mirrored snapshots score the shadow: a partial mirror
	// (mirror started mid-snapshot, or one shard's shadow predictor failed)
	// would bias the cluster-level comparison.
	if s.cfg.ShadowObserve != nil && shadowN == len(samples) {
		s.cfg.ShadowObserve(res.ClusterWatts, shadowSum, actual)
	}
	if s.cfg.Labeled != nil {
		s.cfg.Labeled(samples, metered, res.ClusterWatts, res.Version())
	}
	if s.cfg.Observer != nil {
		// Same feed point as Labeled, but with the per-machine estimates
		// broken out — the accuracy-SLO tracker scores machines
		// individually.
		ids := make([]string, len(samples))
		est := make([]float64, len(samples))
		for i := range samples {
			ids[i] = samples[i].MachineID
			est[i] = res.PerMachine[ids[i]]
		}
		s.cfg.Observer.ObserveLabeled(ids, est, metered, res.ClusterWatts, res.Version())
	}
}

// Drifted reports whether the serve-path drift monitor has alarmed.
func (s *Server) Drifted() bool { return s.drifted.Load() }

// ResetDrift clears the drift alarm and re-arms the monitor on fresh
// residuals (the lifecycle orchestrator calls this after each verdict so
// a resolved drift does not immediately re-trigger).
func (s *Server) ResetDrift() {
	if s.monitor != nil {
		s.monitor.Reset()
	}
	s.drifted.Store(false)
}

// StartShadow begins mirroring live traffic against the named registry
// version: every shard predicts it alongside the champion, and fully
// mirrored metered snapshots flow to Config.ShadowObserve. Shadow
// predictions are never returned to clients.
func (s *Server) StartShadow(version string) error {
	e, ok := s.reg.Get(version)
	if !ok {
		return fmt.Errorf("serve: unknown shadow version %q", version)
	}
	if err := s.ValidateCompatible(e); err != nil {
		return err
	}
	s.shadow.Store(e)
	return nil
}

// StopShadow ends the mirror.
func (s *Server) StopShadow() { s.shadow.Store(nil) }

// ShadowVersion returns the version being mirrored, or "" when none.
func (s *Server) ShadowVersion() string {
	if e := s.shadow.Load(); e != nil {
		return e.Version
	}
	return ""
}

// Result is the outcome of one Estimate call.
type Result struct {
	ClusterWatts float64
	PerMachine   map[string]float64
	Versions     []string // model versions that served this snapshot (1 unless a swap landed mid-flight)
	Shed         int
	Late         int
	Err          error
	// RetryAfter is the adaptive limiter's backoff hint when the request
	// was shed by admission control; zero otherwise (the HTTP layer falls
	// back to the queue-depth hint).
	RetryAfter time.Duration
}

// Version returns the single serving version, or a "+"-joined list when a
// hot-swap landed mid-snapshot.
func (r *Result) Version() string {
	switch len(r.Versions) {
	case 0:
		return ""
	case 1:
		return r.Versions[0]
	}
	out := r.Versions[0]
	for _, v := range r.Versions[1:] {
		out += "+" + v
	}
	return out
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrOverloaded = fmt.Errorf("serve: queue full, request shed")
	ErrDeadline   = fmt.Errorf("serve: deadline exceeded before processing")
	ErrNoModel    = fmt.Errorf("serve: no active model")
)

// worker drains one shard: it picks up the first queued task, widens the
// batch (see fill), then predicts the whole batch under one predictor lock
// — amortizing queue wakeups, the registry load, and feature-row
// construction bookkeeping across every sample in the batch.
func (s *Server) worker(sh *shard) {
	defer s.wg.Done()
	var batch []*task // reused across fills: process keeps no reference
	for {
		t, ok := <-sh.queue
		if !ok {
			return
		}
		t.dequeued = time.Now()
		var reason *obs.Counter
		batch, reason = s.fill(sh, append(batch[:0], t))
		reason.Inc()
		sh.depth.Set(float64(len(sh.queue)))
		s.process(sh, batch)
		clear(batch)
	}
}

// fill widens a batch from its first task up to BatchMax samples. It waits
// up to BatchWindow for more, except once it holds a push-marked task:
// the batch payload behind the mark has queued everything it carries, so
// fill takes only what is already queued. It returns the batch and the
// counter for why the fill ended.
func (s *Server) fill(sh *shard, batch []*task) ([]*task, *obs.Counter) {
	push := batch[0].push
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for len(batch) < s.cfg.BatchMax {
		var t *task
		ok := true
		if push {
			select {
			case t, ok = <-sh.queue:
			default:
				return batch, closePush
			}
		} else {
			if timer == nil {
				timer = time.NewTimer(s.fillWindow())
			}
			select {
			case t, ok = <-sh.queue:
			case <-timer.C:
				return batch, closeWindow
			}
		}
		if !ok {
			return batch, closeClosed
		}
		t.dequeued = time.Now()
		batch = append(batch, t)
		push = push || t.push
	}
	return batch, closeFull
}

// fillWindow is BatchWindow, shrunk on brownout rung 1 so queued work
// drains with less artificial batching latency.
func (s *Server) fillWindow() time.Duration {
	window := s.cfg.BatchWindow
	if s.ov != nil && s.ov.Level() >= overload.LevelTrim {
		window /= 4
		if window < 50*time.Microsecond {
			window = 50 * time.Microsecond
		}
	}
	return window
}

// finish answers one task and returns its limiter admission, feeding the
// sample's observed queue+predict latency into the shard's gradient (late
// and failed tasks included — their latency is exactly the congestion
// signal the limiter adapts on).
func (s *Server) finish(sh *shard, t *task, r taskResult) {
	if t.acquired {
		s.ov.LimiterFor(sh.id).Release(time.Since(t.enqueued))
	}
	t.req.results[t.idx] = r
	t.req.wg.Done()
}

// process predicts one batch against the currently active model version.
func (s *Server) process(sh *shard, batch []*task) {
	batchSizeHist.Observe(float64(len(batch)))
	entry := s.reg.Active()
	now := time.Now()

	// Answer expired and model-less tasks without touching the predictor.
	live := batch[:0]
	for _, t := range batch {
		switch {
		case now.After(t.deadline):
			deadlineTotal.Inc()
			t.at.Span("queue", t.enqueued, t.dequeued.Sub(t.enqueued),
				obs.String("machine", t.sample.MachineID), obs.Int("shard", sh.id),
				obs.String("outcome", "late"))
			s.finish(sh, t, taskResult{late: true})
		case entry == nil:
			s.finish(sh, t, taskResult{err: ErrNoModel})
		default:
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return
	}

	pred, err := s.predictorFor(sh, entry)
	if err != nil {
		for _, t := range live {
			s.finish(sh, t, taskResult{err: err})
		}
		return
	}
	samples := make([]online.Sample, len(live))
	traced := false
	for i, t := range live {
		samples[i] = t.sample
		if t.at != nil {
			traced = true
		}
	}
	predictStart := time.Now()
	if s.cfg.PredictStall > 0 {
		time.Sleep(s.cfg.PredictStall)
	}
	items := pred.PredictBatch(samples)
	predictDur := time.Since(predictStart)
	if traced {
		// One queue/batch/predict span chain per traced machine-sample:
		// queue is this task's own wait, batch the window it sat in while
		// the worker widened the pickup, predict the shared batch predict.
		for _, t := range live {
			if t.at == nil {
				continue
			}
			machine := obs.String("machine", t.sample.MachineID)
			t.at.Span("queue", t.enqueued, t.dequeued.Sub(t.enqueued),
				machine, obs.Int("shard", sh.id))
			t.at.Span("batch", t.dequeued, predictStart.Sub(t.dequeued),
				machine, obs.Int("batch_size", len(batch)))
			t.at.Span("predict", predictStart, predictDur,
				machine, obs.String("version", entry.Version))
		}
	}

	// Mirror the batch against the shadow challenger, if one is active.
	// Same samples, same shard goroutine, its own per-shard predictor (own
	// lag history) — one extra PredictBatch, no new lock contention. A
	// shadow predictor failure silently skips the mirror for this batch;
	// the serving path is never affected.
	// Brownout rung 2 pauses the mirror: under pressure, the champion's
	// capacity must not be spent double-predicting for the challenger.
	var shadowItems []online.BatchItem
	if se := s.shadow.Load(); se != nil && se.Version != entry.Version &&
		(s.ov == nil || s.ov.Level() < overload.LevelShedAux) {
		if sp, err := s.predictorFor(sh, se); err == nil {
			shadowItems = sp.PredictBatch(samples)
		}
	}
	for i, t := range live {
		if items[i].Err != nil {
			s.finish(sh, t, taskResult{err: items[i].Err})
		} else {
			samplesServed.Inc()
			tr := taskResult{watts: items[i].Watts, version: entry.Version}
			if shadowItems != nil && shadowItems[i].Err == nil {
				tr.shadowWatts = shadowItems[i].Watts
				tr.shadowOK = true
			}
			s.finish(sh, t, tr)
		}
	}
}

// predictorFor returns the shard's predictor for the entry's version,
// building (and caching) it on first use after a hot-swap. Old versions'
// predictors are pruned lazily so an activate/rollback ping-pong cannot
// grow the cache without bound.
func (s *Server) predictorFor(sh *shard, entry *registry.Entry) (*online.Predictor, error) {
	if p, ok := sh.preds[entry.Version]; ok {
		return p, nil
	}
	p, err := online.NewPredictor(entry.Model, s.cfg.Names)
	if err != nil {
		return nil, fmt.Errorf("serve: model %s incompatible with stream: %w", entry.Version, err)
	}
	swapPredictors.Inc()
	if len(sh.preds) >= 8 {
		// Prune everything except the versions still in play: the entry
		// being built, the active champion, and the shadow challenger (so
		// mirroring never evicts the mirror's own lag history).
		keep := map[string]bool{entry.Version: true}
		if ae := s.reg.Active(); ae != nil {
			keep[ae.Version] = true
		}
		if se := s.shadow.Load(); se != nil {
			keep[se.Version] = true
		}
		for v := range sh.preds {
			if !keep[v] {
				delete(sh.preds, v)
			}
		}
	}
	sh.preds[entry.Version] = p
	return p, nil
}

// ValidateCompatible checks that a model can serve the configured counter
// stream — run at admission time so activation can never install a model
// the shards would reject.
func (s *Server) ValidateCompatible(e *registry.Entry) error {
	_, err := online.NewPredictor(e.Model, s.cfg.Names)
	if err != nil {
		return fmt.Errorf("serve: model %s incompatible with stream: %w", e.Version, err)
	}
	return nil
}

// Registry exposes the underlying model registry (for the HTTP layer).
func (s *Server) Registry() *registry.Registry { return s.reg }
