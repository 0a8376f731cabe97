package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// handlerRec is one timed call of the serve mux.
type handlerRec struct {
	start, end time.Time
	traceID    string
	bytes      int64
	flush      chan struct{} // non-nil: a flush marker, not a request
}

// handlerTracer wraps the serve mux: it times every estimate handler
// call and hands the timing plus the request's trace ID to a collector
// goroutine, which joins it with the queue/batch/predict/respond spans
// the server recorded into its trace store.
type handlerTracer struct {
	next  http.Handler
	store *obs.TraceStore
	// recs is buffered so a burst of answers never waits on the
	// collector; 4096 is far more than two connections can have pending.
	recs chan handlerRec
	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	bd *serveBreakdown
}

func newHandlerTracer(next http.Handler, store *obs.TraceStore) *handlerTracer {
	t := &handlerTracer{
		next: next, store: store,
		recs: make(chan handlerRec, 4096),
		stop: make(chan struct{}), done: make(chan struct{}),
		bd: &serveBreakdown{},
	}
	go t.collect()
	return t
}

func (t *handlerTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	end := time.Now()
	if !strings.HasPrefix(r.URL.Path, "/v1/estimate") {
		return
	}
	id, _, _ := obs.ParseTraceparent(w.Header().Get("traceparent"))
	select {
	case t.recs <- handlerRec{start: start, end: end, traceID: id, bytes: r.ContentLength}:
	case <-t.stop:
	}
}

func (t *handlerTracer) collect() {
	defer close(t.done)
	for {
		select {
		case <-t.stop:
			return
		case rec := <-t.recs:
			if rec.flush != nil {
				close(rec.flush)
				continue
			}
			var td *obs.TraceData
			if rec.traceID != "" {
				td = t.store.Get(rec.traceID)
			}
			t.mu.Lock()
			t.bd.add(rec, td)
			t.mu.Unlock()
		}
	}
}

// sync waits until every record sent so far has been collected.
func (t *handlerTracer) sync() {
	f := make(chan struct{})
	t.recs <- handlerRec{flush: f}
	<-f
}

// reset drops everything collected so far (the warm-up).
func (t *handlerTracer) reset() {
	t.sync()
	t.mu.Lock()
	t.bd = &serveBreakdown{}
	t.mu.Unlock()
}

// finish returns the breakdown of every request answered so far.
func (t *handlerTracer) finish() *serveBreakdown {
	t.sync()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bd
}

// close stops the collector and waits for it to exit.
func (t *handlerTracer) close() {
	close(t.stop)
	<-t.done
}

// Engine stage kinds, in the order a sample moves through them. When
// spans of several samples overlap, an instant belongs to the most
// advanced stage active then.
const (
	stageQueue = iota
	stageFill
	stagePredict
	numStages
)

var spanStage = map[string]int{"queue": stageQueue, "batch": stageFill, "predict": stagePredict}

// serveBreakdown accumulates the traced run's per-request stage times.
// Per request, the handler interval splits into decode+admit (before the
// first engine span), the engine's self times (queue wait, batch fill
// wait, predict), respond (encode), and whatever no span covers.
type serveBreakdown struct {
	requests  int
	untraced  int // requests whose trace was missing or truncated
	handlerMS []float64
	// tracedHandlerMS sums handler time over the requests with a
	// complete trace, the base the stage times are shares of.
	tracedHandlerMS float64
	decodeMS        float64
	stageMS         [numStages]float64
	respondMS       float64
	queueWaits      []float64 // per sample
	fillWaits       []float64 // per sample
	bytes           float64
	samples         float64
}

type stageEdge struct {
	at    int64
	stage int
	delta int
}

func (b *serveBreakdown) add(rec handlerRec, td *obs.TraceData) {
	b.requests++
	b.handlerMS = append(b.handlerMS, ms(rec.end.Sub(rec.start)))
	if td == nil || td.DroppedSpans > 0 {
		b.untraced++
		return
	}
	b.tracedHandlerMS += ms(rec.end.Sub(rec.start))
	var edges []stageEdge
	first := int64(-1)
	samples := 0
	for _, sp := range td.Spans {
		if sp.Name == "respond" {
			b.respondMS += ms(sp.Duration)
			continue
		}
		st, ok := spanStage[sp.Name]
		if !ok {
			continue
		}
		switch st {
		case stageQueue:
			b.queueWaits = append(b.queueWaits, ms(sp.Duration))
			samples++
		case stageFill:
			b.fillWaits = append(b.fillWaits, ms(sp.Duration))
		}
		s := sp.Start.UnixNano()
		if first < 0 || s < first {
			first = s
		}
		edges = append(edges, stageEdge{s, st, 1}, stageEdge{s + int64(sp.Duration), st, -1})
	}
	b.bytes += float64(rec.bytes)
	b.samples += float64(samples)
	if first >= 0 {
		b.decodeMS += float64(first-rec.start.UnixNano()) / 1e6
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var active [numStages]int
	for i, e := range edges {
		if i > 0 {
			for st := numStages - 1; st >= 0; st-- {
				if active[st] > 0 {
					b.stageMS[st] += float64(e.at-edges[i-1].at) / 1e6
					break
				}
			}
		}
		active[e.stage] += e.delta
	}
}

// servePerLayer derives the per-layer metrics from the traced phase and
// logs the breakdown; e2e and e2eTraced are the two phases' end-to-end
// figures, compared for the tracing overhead.
func servePerLayer(w io.Writer, traced *servePhase, e2e, e2eTraced map[string]float64) map[string]float64 {
	b := traced.traced
	traced2 := b.requests - b.untraced
	per := func(v float64) float64 { return ratio(v, float64(traced2)) }
	handlerMean := per(b.tracedHandlerMS)
	c := traced.counters
	m := map[string]float64{
		"client.p99_ms":             e2e["p99_ms"],
		"client.send_lag_p99_ms":    0,
		"serve.handler_p50_ms":      quantile(b.handlerMS, 0.50),
		"serve.handler_p99_ms":      quantile(b.handlerMS, 0.99),
		"serve.handler_mean_ms":     handlerMean,
		"serve.decode_admit_ms":     per(b.decodeMS),
		"serve.queue_wait_p50_ms":   quantile(b.queueWaits, 0.50),
		"serve.queue_wait_p99_ms":   quantile(b.queueWaits, 0.99),
		"serve.fill_wait_ms":        mean(b.fillWaits),
		"serve.stage_queue_ms":      per(b.stageMS[stageQueue]),
		"serve.stage_fill_ms":       per(b.stageMS[stageFill]),
		"serve.stage_predict_ms":    per(b.stageMS[stagePredict]),
		"serve.respond_ms":          per(b.respondMS),
		"serve.req_bytes_per_est":   ratio(b.bytes, b.samples),
		"serve.batch_size":          ratio(c.batchSum, c.batchCount),
		"serve.predictor_builds":    c.builds,
		"online.predict_us_per_est": ratio(c.predictSum*1e6, c.samples),
		"registry.activate_ms":      mean(traced.activateMS),
		"overload.admitted":         c.admitted,
		"overload.shed":             c.shed,
		"overload.admit_ratio":      ratio(c.admitted, c.admitted+c.shed),
		"runtime.allocs_per_est":    ratio(traced.rt.allocs, traced.estimates),
		"runtime.gc_pause_ms":       traced.rt.pauseMS,
	}
	if len(traced.lags) > 0 {
		m["client.send_lag_p99_ms"] = quantile(traced.lags, 0.99)
	}
	stages := []struct {
		name string
		v    float64
	}{
		{"decode_admit", m["serve.decode_admit_ms"]},
		{"queue_wait", m["serve.stage_queue_ms"]},
		{"fill_wait", m["serve.stage_fill_ms"]},
		{"predict", m["serve.stage_predict_ms"]},
		{"respond", m["serve.respond_ms"]},
	}
	var sum float64
	top := stages[0]
	for _, s := range stages {
		sum += s.v
		if s.v > top.v {
			top = s
		}
	}
	m["serve.stage_sum_pct"] = 100 * ratio(sum, handlerMean)
	fmt.Fprintf(w, "  serve breakdown over %d traced requests (%d without a complete trace), mean handler %.3f ms:\n",
		traced2, b.untraced, handlerMean)
	for _, s := range stages {
		fmt.Fprintf(w, "    %-13s %9.4f ms  %5.1f%%\n", s.name, s.v, 100*ratio(s.v, handlerMean))
	}
	fmt.Fprintf(w, "    dominant stage: %s\n", top.name)
	fmt.Fprintf(w, "  stage-sum check: stages sum to %.1f%% of the mean handler time: %s\n",
		m["serve.stage_sum_pct"], passFail(m["serve.stage_sum_pct"]))
	m["trace_overhead_pct"] = traceOverhead(w, []string{"p50_ms", "est_per_s"}, e2e, e2eTraced)
	return m
}

// passFail reports a stage-sum percentage against the ±10% rule.
func passFail(pct float64) string {
	if pct >= 90 && pct <= 110 {
		return "pass"
	}
	return "FAIL (outside 90-110%)"
}
