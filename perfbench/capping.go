package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/registry"
	"repro/internal/sim"
)

// dc-capping shape: a 1000-machine fleet with BENCH_cluster's platform
// and profile mix in five rows of five racks. Every rack of the first
// capBudgetRows rows gets a budget capBudgetFraction of the way from its
// idle floor to the uncapped twin's peak. (A plain fraction of the peak
// would be infeasible: these platforms idle at 90-95% of peak.) The last
// row's idle machines are the controller's migration spares. The fleet is
// simulated in episodes of capHorizon seconds.
const (
	capRows, capRacksPerRow, capPerRack = 5, 5, 40
	capBudgetRows                       = 4
	capHorizon                          = 1800 // simulated seconds per episode
	capIntervalS                        = 15
	capBudgetFraction                   = 0.85
	capMeterTol                         = 1.015 // ground-truth allowance for meter error
)

// capPlatforms and capProfiles are BENCH_cluster's fleet mix.
var (
	capPlatforms = []cluster.Weighted{
		{Name: "XeonSAS", Weight: 0.35},
		{Name: "XeonSATA", Weight: 0.25},
		{Name: "Opteron", Weight: 0.25},
		{Name: "Athlon", Weight: 0.1},
		{Name: "Core2", Weight: 0.05},
	}
	capProfiles = []cluster.Weighted{
		{Name: "bursty", Weight: 0.55},
		{Name: "diurnal", Weight: 0.25},
		{Name: "steady", Weight: 0.1},
		{Name: "idle", Weight: 0.1},
	}
)

// cappingInputs is the dc-capping set-up: the fleet spec, the admitted
// bootstrap model, and the policy whose budgets the uncapped twin set.
type cappingInputs struct {
	spec       *cluster.Spec
	reg        *registry.Registry
	pol        *control.Policy
	racks      []string
	servedTwin float64
	twinDigest string
	settleS    int64
}

func buildCapping(seed int64) (*cappingInputs, error) {
	spec := &cluster.Spec{
		Version: cluster.SpecVersion,
		Name:    "perfbench-dc",
		Seed:    seed,
		Grid: &cluster.Grid{
			Rows: capRows, RacksPerRow: capRacksPerRow, MachinesPerRack: capPerRack,
			Platforms: capPlatforms, Profiles: capProfiles,
		},
	}
	in := &cappingInputs{spec: spec, settleS: 2 * capIntervalS}
	for r := 0; r < capBudgetRows; r++ {
		for k := 0; k < capRacksPerRow; k++ {
			in.racks = append(in.racks, fmt.Sprintf("row-%d/rack-%d", r, k))
		}
	}
	var names []string
	for _, p := range capPlatforms {
		names = append(names, p.Name)
	}
	cm, err := control.Bootstrap(names, seed)
	if err != nil {
		return nil, err
	}
	in.reg = registry.New()
	if err := in.reg.Add("boot-1", cm, registry.Meta{Description: "perfbench bootstrap", Source: "telemetry"}); err != nil {
		return nil, err
	}

	// Uncapped twin: per-rack ground-truth peaks and fleet throughput.
	_, cs, levels, err := in.build()
	if err != nil {
		return nil, err
	}
	peaks := make([]float64, len(levels))
	for ts := int64(1); ts <= capHorizon; ts++ {
		cs.RunUntil(ts)
		for i, l := range levels {
			peaks[i] = math.Max(peaks[i], l.GroundTruthWatts())
		}
	}
	in.servedTwin, in.twinDigest = cs.ServedCPU(), cs.Digest()
	if in.servedTwin <= 0 {
		return nil, fmt.Errorf("uncapped twin served nothing")
	}
	pol := &control.Policy{
		Version:              control.PolicyVersion,
		Name:                 "perfbench",
		IntervalS:            capIntervalS,
		MaxActuationsPerTick: 12,
		Migration:            control.MigrationPolicy{Enabled: true, MaxPerTick: 12},
	}
	// Hysteresis is a tenth of the smallest rack's headroom over its
	// floor, so the controller relaxes caps instead of shedding forever.
	minHeadroom := math.Inf(1)
	for i, r := range in.racks {
		var floor float64
		for _, mn := range levels[i].Machines {
			floor += mn.Machine.IdleWatts()
		}
		b := floor + capBudgetFraction*(peaks[i]-floor)
		pol.Budgets = append(pol.Budgets, control.Budget{Level: r, Watts: b})
		minHeadroom = math.Min(minHeadroom, b-floor)
	}
	pol.HysteresisWatts = minHeadroom * 0.1
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	in.pol = pol
	return in, nil
}

// build makes a fresh simulator of the fleet and resolves the budgeted
// racks.
func (in *cappingInputs) build() (*cluster.Topology, *cluster.ClusterSimulator, []*cluster.Level, error) {
	topo, err := cluster.Build(in.spec)
	if err != nil {
		return nil, nil, nil, err
	}
	levels := make([]*cluster.Level, len(in.racks))
	for i, r := range in.racks {
		l, ok := topo.FindLevel(r)
		if !ok {
			return nil, nil, nil, fmt.Errorf("rack %s missing", r)
		}
		levels[i] = l
	}
	return topo, cluster.NewSimulator(topo), levels, nil
}

// simTrace is the traced run's per-layer accounting of the sim loop.
type simTrace struct {
	events, machineEvents, steps, ticks int64
	machineNs, tickNs, aggNs, wallNs    int64
}

// step advances the simulator to second ts by driving ProcessNextEvent
// itself, then reads the datacenter aggregate. A control tick is an
// actuation event, and actuations sort before every machine event of
// their second, so only a step's first event can be a tick: it counts as
// one when Controller.Stats() ticks advanced across it, and is timed on
// its own. The step's other events are machine events, timed together so
// the clock reads stay a negligible share of the work.
func (tr *simTrace) step(cs *cluster.ClusterSimulator, ctl *control.Controller, root *cluster.Level, ts int64) float64 {
	start := time.Now()
	ticks0, _, _, _ := ctl.Stats()
	if cs.HasPendingEvents() && cs.PeekNextEventTime() <= ts {
		cs.ProcessNextEvent()
		tr.events++
		if ticks, _, _, _ := ctl.Stats(); ticks > ticks0 {
			now := time.Now()
			tr.ticks++
			tr.tickNs += int64(now.Sub(start))
			start = now
		} else {
			tr.machineEvents++
		}
	}
	for cs.HasPendingEvents() && cs.PeekNextEventTime() <= ts {
		cs.ProcessNextEvent()
		tr.events++
		tr.machineEvents++
	}
	cs.RunUntil(ts) // no events remain at or before ts: only moves the clock
	agg := time.Now()
	tr.machineNs += int64(agg.Sub(start))
	w := root.Watts()
	tr.aggNs += int64(time.Since(agg))
	return w
}

// episode is one capped run over capHorizon simulated seconds.
type episode struct {
	stepMS           []float64 // wall ms per monitoring step (advance + aggregate read)
	simNs            int64     // time inside sim calls
	events, steps    int64
	allocs           float64
	checks, failed   int64
	samples, viol    int64 // budgeted rack-seconds scored, and over budget
	served           float64
	digest           string
	ticks, decisions int64
	actuations       int64
	firstErr         error
}

// runEpisode simulates one capped episode the way a power monitor
// would: advance one second, read the datacenter aggregate. Outside the
// timed calls it checks the incremental aggregate against a full
// recompute and scores each budgeted rack's ground truth. With tr set,
// it drives ProcessNextEvent itself and times the layers apart (see
// simTrace.step).
func (in *cappingInputs) runEpisode(tr *simTrace) (*episode, error) {
	topo, cs, levels, err := in.build()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// The wrapped evaluator records what the default one does (the
		// meter reading), so the digest is unchanged; it only counts steps.
		cs.SetEvaluator(func(_ *cluster.MachineNode, _ sim.Served, p sim.PowerSample) float64 {
			tr.steps++
			return p.MeterWatts
		})
	}
	ctl, err := control.New(cs, control.Config{Policy: in.pol, Registry: in.reg})
	if err != nil {
		return nil, err
	}
	ctl.Start()
	ep := &episode{stepMS: make([]float64, 0, capHorizon)}
	fail := func(err error) {
		ep.failed++
		if ep.firstErr == nil {
			ep.firstErr = err
		}
	}
	allocs0 := readMetric(allocsMetric)
	for ts := int64(1); ts <= capHorizon; ts++ {
		t0 := time.Now()
		var w float64
		if tr == nil {
			cs.RunUntil(ts)
			w = topo.Root.Watts()
		} else {
			w = tr.step(cs, ctl, topo.Root, ts)
		}
		d := time.Since(t0)
		if tr != nil {
			tr.wallNs += int64(d)
		}
		ep.simNs += int64(d)
		ep.stepMS = append(ep.stepMS, ms(d))

		ep.checks++
		if full := topo.Root.FullRecompute(); w <= 0 || math.IsNaN(w) || math.Float64bits(w) != math.Float64bits(full) {
			fail(fmt.Errorf("t=%d: aggregate %v, full recompute %v", ts, w, full))
		}
		if ts <= in.settleS {
			continue
		}
		for i, l := range levels {
			ep.samples++
			if l.GroundTruthWatts() > in.pol.Budgets[i].Watts*capMeterTol {
				ep.viol++
			}
		}
	}
	ep.allocs = float64(readMetric(allocsMetric) - allocs0)
	ep.events, ep.steps = cs.Events(), cs.Steps()
	ep.served, ep.digest = cs.ServedCPU(), cs.Digest()
	ticks, decisions, freqActs, migActs := ctl.Stats()
	ep.ticks, ep.decisions, ep.actuations = ticks, decisions, freqActs+migActs
	return ep, nil
}

// cappingPhase runs episodes for dur and checks that every episode
// reproduces the first one's digest.
type cappingPhase struct {
	episodes []*episode
	rt       probeResult
	failed   int64
	checks   int64
}

func (in *cappingInputs) runPhase(dur time.Duration, tr *simTrace, log io.Writer) (*cappingPhase, error) {
	p := &cappingPhase{}
	probe := startProbe()
	start := time.Now()
	for len(p.episodes) == 0 || time.Since(start) < dur {
		ep, err := in.runEpisode(tr)
		if err != nil {
			return nil, err
		}
		first := ep
		if len(p.episodes) > 0 {
			first = p.episodes[0]
		}
		p.checks += ep.checks + 1
		p.failed += ep.failed
		if ep.digest != first.digest || ep.viol != first.viol || ep.served != first.served {
			p.failed++
			fmt.Fprintf(log, "episode %d not reproducible: digest %s, want %s\n", len(p.episodes), ep.digest, first.digest)
		}
		if ep.firstErr != nil {
			fmt.Fprintln(log, "first failure:", ep.firstErr)
		}
		p.episodes = append(p.episodes, ep)
	}
	p.rt = probe.finish()
	return p, nil
}

// endToEnd computes the phase's end-to-end metrics. Timings and rates
// are taken per episode, counting only time inside the sim calls, and
// the median episode is reported, so a burst of outside load moves one
// episode's figure, not the result.
func (p *cappingPhase) endToEnd(in *cappingInputs, setup float64) map[string]float64 {
	var p50, p99, steps, simS, events, allocs []float64
	for _, ep := range p.episodes {
		s := float64(ep.simNs) / 1e9
		p50 = append(p50, quantile(ep.stepMS, 0.50))
		p99 = append(p99, quantile(ep.stepMS, 0.99))
		steps = append(steps, float64(ep.steps)/s)
		simS = append(simS, capHorizon/s)
		events = append(events, float64(ep.events)/s)
		// The sim steps without allocating; the controller's what-if
		// decisions do, so allocations are counted per decision.
		allocs = append(allocs, ratio(ep.allocs, float64(ep.decisions)))
	}
	ep := p.episodes[0]
	return map[string]float64{
		"setup_s":              setup,
		"p50_ms":               median(p50),
		"p99_ms":               median(p99),
		"est_per_s":            median(steps),
		"sim_s_per_s":          median(simS),
		"events_per_s":         median(events),
		"compliance_pct":       100 * (1 - ratio(float64(ep.viol), float64(ep.samples))),
		"throughput_retention": ep.served / in.servedTwin,
		"peak_heap_mb":         p.rt.peakMB,
		"allocs_per_op":        median(allocs),
	}
}

func runCappingWorkload(o options) (*report, error) {
	repeats := setupRepeats
	if o.trace {
		repeats = 1
	}
	var in *cappingInputs
	var setups []float64
	rep := &report{}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		next, err := buildCapping(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.attempted++
		if in != nil && next.twinDigest != in.twinDigest {
			rep.failed++
			fmt.Fprintf(o.log, "uncapped twin not reproducible: digest %s then %s\n", in.twinDigest, next.twinDigest)
		}
		in = next
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	p, err := in.runPhase(dur, nil, o.log)
	if err != nil {
		return nil, err
	}
	rep.attempted += p.checks
	rep.failed += p.failed
	rep.endToEnd = p.endToEnd(in, median(setups))
	logCapping(o.log, "untraced", p, rep.endToEnd)
	if !o.trace {
		return rep, nil
	}
	tr := &simTrace{}
	tp, err := in.runPhase(dur, tr, o.log)
	if err != nil {
		return nil, err
	}
	rep.attempted += tp.checks
	rep.failed += tp.failed
	e2eTraced := tp.endToEnd(in, 0)
	logCapping(o.log, "traced", tp, e2eTraced)
	rep.perLayer = cappingPerLayer(o.log, tp, tr, rep.endToEnd, e2eTraced)
	return rep, nil
}

func logCapping(w io.Writer, label string, p *cappingPhase, m map[string]float64) {
	ep := p.episodes[0]
	fmt.Fprintf(w, "  %s phase: %d episodes x %d sim-s, %d checks, %d failed, step p50 %.4f ms, p99 %.4f ms, compliance %.2f%% of %d rack-seconds, retention %.4f, digest %.12s\n",
		label, len(p.episodes), capHorizon, p.checks, p.failed, m["p50_ms"], m["p99_ms"],
		m["compliance_pct"], ep.samples, m["throughput_retention"], ep.digest)
}

func cappingPerLayer(w io.Writer, p *cappingPhase, tr *simTrace, e2e, e2eTraced map[string]float64) map[string]float64 {
	var ticks, decisions, actuations int64
	var allocs float64
	for _, ep := range p.episodes {
		ticks += ep.ticks
		decisions += ep.decisions
		actuations += ep.actuations
		allocs += ep.allocs
	}
	busy := tr.machineNs + tr.tickNs + tr.aggNs
	if tr.ticks != ticks {
		fmt.Fprintf(w, "  %d controller ticks, but %d fell on a step's first event\n", ticks, tr.ticks)
	}
	m := map[string]float64{
		"client.p99_ms":            e2e["p99_ms"],
		"cluster.events":           float64(tr.events),
		"cluster.steps":            float64(tr.steps),
		"cluster.event_ns":         ratio(float64(tr.machineNs), float64(tr.machineEvents)),
		"cluster.aggregate_ms":     float64(tr.aggNs) / 1e6,
		"cluster.allocs_per_event": ratio(allocs, float64(tr.events)),
		"control.ticks":            float64(ticks),
		"control.decisions":        float64(decisions),
		"control.actuations":       float64(actuations),
		"control.tick_ms":          ratio(float64(tr.tickNs)/1e6, float64(tr.ticks)),
		"sim.stage_sum_pct":        100 * ratio(float64(busy), float64(tr.wallNs)),
		"runtime.allocs_per_est":   ratio(allocs, float64(tr.steps)),
		"runtime.gc_pause_ms":      p.rt.pauseMS,
	}
	wall := float64(tr.wallNs)
	fmt.Fprintf(w, "  sim breakdown over %d events (%d ticks), %.1f ms in sim calls:\n", tr.events, tr.ticks, wall/1e6)
	fmt.Fprintf(w, "    machine events %9.1f ms  %5.1f%%\n", float64(tr.machineNs)/1e6, 100*ratio(float64(tr.machineNs), wall))
	fmt.Fprintf(w, "    control ticks  %9.1f ms  %5.1f%%\n", float64(tr.tickNs)/1e6, 100*ratio(float64(tr.tickNs), wall))
	fmt.Fprintf(w, "    aggregation    %9.1f ms  %5.1f%%\n", float64(tr.aggNs)/1e6, 100*ratio(float64(tr.aggNs), wall))
	fmt.Fprintf(w, "  stage-sum check: cluster + control busy time is %.1f%% of sim wall time: %s\n",
		m["sim.stage_sum_pct"], passFail(m["sim.stage_sum_pct"]))
	m["trace_overhead_pct"] = traceOverhead(w, []string{"p50_ms", "sim_s_per_s", "events_per_s"}, e2e, e2eTraced)
	return m
}
