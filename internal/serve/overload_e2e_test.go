package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/trace"
)

// syncWriter is a race-clean event sink target; read it only after the
// writers have quiesced.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// events parses the sink's JSON lines and counts them by event name.
func (w *syncWriter) events(t *testing.T) map[string]int {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	counts := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(w.buf.Bytes()))
	for sc.Scan() {
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		counts[ev.Event]++
	}
	return counts
}

// stormTrace builds a flat synthetic replay trace: every second is a=1,
// b=1 (13 W under the v1 test model).
func stormTrace(machine string, seconds int) *trace.Trace {
	x := mathx.NewMatrix(seconds, len(testNames))
	power := make([]float64, seconds)
	for s := 0; s < seconds; s++ {
		x.Data[s*2] = 1
		x.Data[s*2+1] = 1
		power[s] = 13
	}
	return &trace.Trace{MachineID: machine, Platform: "p", Names: testNames, X: x, Power: power}
}

// runStorm replays the seeded surge scenario — 1 s at half capacity, a
// 10x storm for 2 s (5x engine capacity), then a 3 s recovery tail —
// against one engine. PredictStall pins predict capacity at
// Shards x BatchMax / PredictStall = 400 samples/s on any hardware, so
// the load multipliers mean the same thing everywhere.
func runStorm(t *testing.T, adaptive bool, sink *obs.EventSink) (*LoadStats, *Server) {
	t.Helper()
	cfg := Config{
		Shards: 1, QueueDepth: 256,
		BatchWindow: 500 * time.Microsecond, BatchMax: 4,
		Deadline:     100 * time.Millisecond,
		PredictStall: 10 * time.Millisecond,
	}
	if adaptive {
		cfg.Overload = &overload.Config{
			Limiter: overload.LimiterConfig{
				// Min keeps two full batches in flight so the drain rate
				// never collapses below engine capacity; Tolerance places
				// the latency target (~4x the 12ms uncongested floor)
				// under the 100ms deadline so admitted work still
				// finishes in time; the tight bulk fractions reserve most
				// of the limit for tier 0, whose storm arrival rate is a
				// large slice of capacity.
				Min: 8, Tolerance: 3,
				TierFrac: [overload.NumPriorities]float64{1, 0.25, 0.1},
			},
			Events: sink,
		}
		cfg.Events = sink
	}
	srv, base := newTestServer(t, cfg)
	stats, err := RunLoadGen(LoadGenConfig{
		TargetURL: base,
		Traces:    []*trace.Trace{stormTrace("m1", 30)},
		// Enough concurrent senders that the offered storm stays open-loop:
		// with few clients, every sender ends up blocked behind the queue
		// and the "overload" throttles itself away.
		Snapshots: 4800, Rate: 200, Clients: 256, Batch: 1,
		Scenario: &faults.Scenario{
			Load: []faults.LoadSurge{{StartS: 1, EndS: 3, Multiplier: 10}},
		},
		Seed:            42,
		PriorityWeights: [overload.NumPriorities]int{1, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, srv
}

// TestOverloadStormGoodput drives the same 5x overload storm into a
// static-shed engine (bounded queue only) and an adaptive one (AIMD
// limiter + strict-priority shedding + brownout ladder) and checks the
// tentpole contract: interactive goodput at least doubles, no priority
// inversions, and the brownout ladder enters under pressure and fully
// exits through hysteresis after the storm passes.
func TestOverloadStormGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second storm replay")
	}

	baseStats, _ := runStorm(t, false, nil)
	w := &syncWriter{}
	adStats, srv := runStorm(t, true, obs.NewEventSink(w))

	// The storm must actually overload both engines.
	if baseStats.Shed+baseStats.Late == 0 {
		t.Fatal("static baseline never shed or timed out; the storm did not overload it")
	}
	if adStats.Shed == 0 {
		t.Fatal("adaptive engine never shed; the limiter did not engage")
	}

	// Interactive goodput: the adaptive engine keeps serving tier 0 while
	// shedding the bulk tiers; the static queue sheds and times out
	// blindly across tiers.
	baseOK := baseStats.Tiers[overload.Interactive].OK
	adOK := adStats.Tiers[overload.Interactive].OK
	floor := baseOK
	if floor < 1 {
		floor = 1
	}
	t.Logf("interactive goodput: static=%d adaptive=%d (sent %d/%d)",
		baseOK, adOK, baseStats.Tiers[overload.Interactive].Sent, adStats.Tiers[overload.Interactive].Sent)
	t.Logf("static interactive: %+v", baseStats.Tiers[overload.Interactive])
	t.Logf("adaptive interactive: %+v", adStats.Tiers[overload.Interactive])
	t.Logf("adaptive batch: %+v", adStats.Tiers[overload.Batch])
	t.Logf("adaptive background: %+v", adStats.Tiers[overload.Background])
	if adOK < 2*floor {
		t.Errorf("adaptive interactive goodput %d < 2x static baseline %d", adOK, baseOK)
	}

	// Zero priority inversions: no tick shed tier 0 while admitting tier 2.
	if inv := srv.Overload().InversionTicks(); inv != 0 {
		t.Errorf("priority inversions in %d tick(s), want 0", inv)
	}

	// Brownout lifecycle: the ladder must have entered during the storm
	// and must fully unwind to normal through exit hysteresis once load
	// falls back to half capacity.
	deadline := time.Now().Add(10 * time.Second)
	for srv.BrownoutLevel() != overload.LevelNormal && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if lvl := srv.BrownoutLevel(); lvl != overload.LevelNormal {
		t.Fatalf("brownout level %d after the storm, want full exit to %d", lvl, overload.LevelNormal)
	}
	evs := w.events(t)
	if evs["brownout_enter"] == 0 {
		t.Error("no brownout_enter event during the storm")
	}
	if evs["brownout_exit"] == 0 {
		t.Error("no brownout_exit event after the storm")
	}

	// Per-status split (loadgen satellite): every snapshot outcome is
	// accounted under an explicit status code, and the rollups agree.
	for _, stats := range []*LoadStats{baseStats, adStats} {
		total := 0
		for _, n := range stats.ByStatus {
			total += n
		}
		if got := stats.OK + stats.Shed + stats.Late + stats.Failed; total != got {
			t.Errorf("by_status sum %d != rollup sum %d", total, got)
		}
		if stats.ByStatus[http.StatusOK] != stats.OK {
			t.Errorf("by_status[200] = %d, want %d", stats.ByStatus[http.StatusOK], stats.OK)
		}
		if stats.TransportErrors != 0 {
			t.Errorf("transport errors %d, want 0 (server stayed up)", stats.TransportErrors)
		}
	}
}

// TestOverloadRetryAfterHeaders locks in the backpressure-header
// satellite: 429 (overload shed) and 504 (deadline) responses both carry
// a Retry-After hint.
func TestOverloadRetryAfterHeaders(t *testing.T) {
	// 429: a one-slot limiter with a slow predictor sheds concurrent
	// surplus immediately.
	_, base := newTestServer(t, Config{
		Shards: 1, QueueDepth: 64, BatchMax: 1, BatchWindow: 100 * time.Microsecond,
		PredictStall: 200 * time.Millisecond,
		Overload: &overload.Config{
			Limiter: overload.LimiterConfig{Initial: 1, Min: 1, Max: 1},
		},
	})
	client := &http.Client{}
	body, _ := json.Marshal(EstimateRequest{Samples: []SampleJSON{sample("m1", 1, 1)}})
	var mu sync.Mutex
	got429 := 0
	retryAfterOK := true
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(base+"/v1/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				mu.Lock()
				got429++
				if resp.Header.Get("Retry-After") == "" {
					retryAfterOK = false
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got429 == 0 {
		t.Fatal("no 429 from a one-slot limiter under 6 concurrent requests")
	}
	if !retryAfterOK {
		t.Fatal("429 response missing Retry-After header")
	}

	// 504: deadlines are checked when a worker picks the batch up, so
	// the 1ms deadline expires in /v1/estimate's default 2ms fill window.
	_, base2 := newTestServer(t, Config{
		Shards: 1, BatchMax: 4, PredictStall: 30 * time.Millisecond,
	})
	req, _ := json.Marshal(EstimateRequest{
		Samples: []SampleJSON{sample("m1", 1, 1)}, DeadlineMS: 1,
	})
	resp, err := client.Post(base2+"/v1/estimate", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 under a 1ms deadline", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 response missing Retry-After header")
	}
}
