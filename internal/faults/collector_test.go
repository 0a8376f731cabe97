package faults

import (
	"errors"
	"testing"

	"repro/internal/counters"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// okFetch returns a fixed row with no error.
func okFetch() ([]float64, error) { return []float64{1, 2, 3}, nil }

// TestFaultCollectorCleanPathPassesThrough: with an empty scenario every
// second succeeds on the first attempt and the breaker stays closed.
func TestFaultCollectorCleanPathPassesThrough(t *testing.T) {
	inj, err := NewInjector(&Scenario{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector("m0", inj, DefaultRetry(), DefaultBreaker())
	if err != nil {
		t.Fatal(err)
	}
	for sec := 0; sec < 20; sec++ {
		res, err := c.Collect(sec, okFetch)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK || res.Attempts != 1 || res.Row == nil {
			t.Fatalf("second %d: %+v, want clean single-attempt success", sec, res)
		}
		if st := c.State(sec); st != "closed" {
			t.Fatalf("breaker %s on clean path", st)
		}
	}
}

// TestFaultCollectorRetryRecoversDrops: with a 50% per-attempt drop rate,
// three attempts recover most seconds — strictly more than a single
// attempt does on the identical fault stream.
func TestFaultCollectorRetryRecoversDrops(t *testing.T) {
	sc := &Scenario{Defaults: MachineFaults{DropProb: 0.5}}
	okWith := func(attempts int) int {
		inj, err := NewInjector(sc, 11)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCollector("m0", inj,
			RetryPolicy{MaxAttempts: attempts, BackoffMS: 1, TimeoutMS: 500, AttemptCostMS: 1},
			BreakerConfig{FailThreshold: 1 << 30, CooldownSeconds: 1})
		if err != nil {
			t.Fatal(err)
		}
		ok := 0
		for sec := 0; sec < 400; sec++ {
			res, err := c.Collect(sec, okFetch)
			if err != nil {
				t.Fatal(err)
			}
			if res.OK {
				ok++
			}
		}
		return ok
	}
	one, three := okWith(1), okWith(3)
	if three <= one {
		t.Fatalf("retries did not help: %d/400 with 3 attempts vs %d/400 with 1", three, one)
	}
	// 1 - 0.5^3 = 87.5% expected; allow generous slack for the finite run.
	if three < 300 {
		t.Fatalf("only %d/400 seconds recovered with 3 attempts", three)
	}
}

// TestFaultCollectorTimeout: a guaranteed latency spike bigger than the
// budget times every sample out.
func TestFaultCollectorTimeout(t *testing.T) {
	inj, err := NewInjector(&Scenario{
		Defaults: MachineFaults{LatencyProb: 1, LatencyMS: 1000},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector("m0", inj,
		RetryPolicy{MaxAttempts: 3, BackoffMS: 10, TimeoutMS: 250, AttemptCostMS: 2},
		BreakerConfig{FailThreshold: 1 << 30, CooldownSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Collect(0, okFetch)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || !res.TimedOut {
		t.Fatalf("result %+v, want timeout", res)
	}
}

// TestFaultCollectorBreakerQuarantineAndRecovery walks the breaker
// through a crash: closed -> open after the fail threshold -> quarantined
// (zero attempts) through the cooldown -> half-open probes -> closed
// again once the machine is back.
func TestFaultCollectorBreakerQuarantineAndRecovery(t *testing.T) {
	const crashAt, downtime = 10, 20
	inj, err := NewInjector(&Scenario{
		Crashes: []Crash{{Machine: "m0", AtS: crashAt, DowntimeS: downtime}},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	brk := BreakerConfig{FailThreshold: 3, CooldownSeconds: 5}
	c, err := NewCollector("m0", inj, DefaultRetry(), brk)
	if err != nil {
		t.Fatal(err)
	}
	quarantined, recoveredAt := 0, -1
	for sec := 0; sec < crashAt+downtime+brk.CooldownSeconds+2; sec++ {
		res, err := c.Collect(sec, okFetch)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case sec < crashAt:
			if !res.OK {
				t.Fatalf("second %d failed before the crash: %+v", sec, res)
			}
		case sec < crashAt+brk.FailThreshold:
			if !res.Down {
				t.Fatalf("second %d not Down at crash start: %+v", sec, res)
			}
		default:
			if res.Quarantined {
				quarantined++
				if res.Attempts != 0 {
					t.Fatalf("quarantined second %d made %d attempts", sec, res.Attempts)
				}
			}
			if res.OK && recoveredAt < 0 {
				recoveredAt = sec
			}
		}
	}
	if quarantined == 0 {
		t.Fatal("breaker never quarantined the crashing machine")
	}
	if recoveredAt < crashAt+downtime {
		t.Fatalf("recovered at %d while still down (crash ends at %d)", recoveredAt, crashAt+downtime)
	}
	// A half-open probe fires at most one cooldown after the machine
	// returns, so recovery is bounded.
	if recoveredAt > crashAt+downtime+brk.CooldownSeconds {
		t.Fatalf("recovered at %d, want <= %d", recoveredAt, crashAt+downtime+brk.CooldownSeconds)
	}
	if st := c.State(recoveredAt); st != "closed" {
		t.Fatalf("breaker %s after recovery", st)
	}
}

// TestFaultCollectorHalfOpenProbeSingleAttempt: with every attempt
// dropped, closed seconds spend the full retry budget until the breaker
// opens; the half-open probe second then makes exactly one attempt even
// though MaxAttempts allows three, and the failed probe re-quarantines
// the machine with zero attempts.
func TestFaultCollectorHalfOpenProbeSingleAttempt(t *testing.T) {
	inj, err := NewInjector(&Scenario{Defaults: MachineFaults{DropProb: 1}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	brk := BreakerConfig{FailThreshold: 2, CooldownSeconds: 4}
	retry := RetryPolicy{MaxAttempts: 3, BackoffMS: 1, TimeoutMS: 500, AttemptCostMS: 1}
	c, err := NewCollector("m0", inj, retry, brk)
	if err != nil {
		t.Fatal(err)
	}
	sec := 0
	for ; c.State(sec) == "closed"; sec++ {
		res, err := c.Collect(sec, okFetch)
		if err != nil {
			t.Fatal(err)
		}
		if res.OK || res.Attempts != retry.MaxAttempts {
			t.Fatalf("closed second %d: %+v, want %d dropped attempts", sec, res, retry.MaxAttempts)
		}
	}
	if sec != brk.FailThreshold {
		t.Fatalf("breaker opened after %d failed seconds, want %d", sec, brk.FailThreshold)
	}
	probe := sec - 1 + brk.CooldownSeconds
	if st := c.State(probe); st != "half-open" {
		t.Fatalf("state at second %d = %s, want half-open", probe, st)
	}
	res, err := c.Collect(probe, okFetch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantined || res.OK || res.Attempts != 1 {
		t.Fatalf("probe second %d: %+v, want exactly one failed attempt", probe, res)
	}
	res, err = c.Collect(probe+1, okFetch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quarantined || res.Attempts != 0 {
		t.Fatalf("second %d after a failed probe: %+v, want quarantined with 0 attempts", probe+1, res)
	}
}

// TestFaultCollectorProbeFetchErrorKeepsProbing: a real fetch error on
// the half-open probe second is returned to the caller without settling
// the breaker, so the next second probes again instead of staying
// quarantined.
func TestFaultCollectorProbeFetchErrorKeepsProbing(t *testing.T) {
	inj, err := NewInjector(&Scenario{
		Crashes: []Crash{{Machine: "m0", AtS: 0, DowntimeS: 2}},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	brk := BreakerConfig{FailThreshold: 2, CooldownSeconds: 4}
	c, err := NewCollector("m0", inj, DefaultRetry(), brk)
	if err != nil {
		t.Fatal(err)
	}
	for sec := 0; sec < 2; sec++ {
		if res, err := c.Collect(sec, okFetch); err != nil || !res.Down {
			t.Fatalf("second %d: %+v, %v, want Down", sec, res, err)
		}
	}
	probe := 1 + brk.CooldownSeconds
	errFetch := func() ([]float64, error) { return nil, errors.New("sensor read failed") }
	if _, err := c.Collect(probe, errFetch); err == nil {
		t.Fatal("fetch error on the probe second was swallowed")
	}
	res, err := c.Collect(probe+1, okFetch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Attempts != 1 {
		t.Fatalf("second %d after an aborted probe: %+v, want one successful probe", probe+1, res)
	}
	if st := c.State(probe + 1); st != "closed" {
		t.Fatalf("breaker %s after a successful probe", st)
	}
}

// TestFaultCollectorWrapsTelemetry drives a real telemetry.Collector +
// simulated machine through the fault pipeline: the adapter must deliver
// genuine counter rows of the registry's width.
func TestFaultCollectorWrapsTelemetry(t *testing.T) {
	cluster, err := telemetry.New("Core2", 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	m := cluster.Machines[0]
	tc := telemetry.NewCollector(cluster.Registry, 42)
	inj, err := NewInjector(&Scenario{
		Defaults: MachineFaults{CorruptProb: 1},
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector(m.ID, inj, DefaultRetry(), DefaultBreaker())
	if err != nil {
		t.Fatal(err)
	}
	clock := NewClock()
	for i := 0; i < 5; i++ {
		_, sig, _ := m.Step(sim.Demand{CPU: 1})
		res, err := c.Collect(clock.Tick(), TelemetryFetch(tc, counters.Signals(sig)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("second %d: telemetry collection failed: %+v", i, res)
		}
		if len(res.Row) != cluster.Registry.Len() {
			t.Fatalf("row has %d counters, registry has %d", len(res.Row), cluster.Registry.Len())
		}
		if res.Corrupted == 0 {
			t.Fatalf("second %d: corruption never applied through the wrapper", i)
		}
	}
	if tc.Samples() != 5 {
		t.Fatalf("inner collector sampled %d times, want 5", tc.Samples())
	}
}

// TestFaultClock checks the shared sim clock's trivial contract.
func TestFaultClock(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("clock does not start at 0")
	}
	for i := 0; i < 3; i++ {
		if got := c.Tick(); got != i {
			t.Fatalf("Tick = %d, want %d", got, i)
		}
	}
	if c.Now() != 3 {
		t.Fatalf("Now = %d after 3 ticks", c.Now())
	}
}

// TestFaultCollectorValidation covers constructor error paths.
func TestFaultCollectorValidation(t *testing.T) {
	inj, err := NewInjector(&Scenario{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCollector("", inj, RetryPolicy{}, BreakerConfig{}); err == nil {
		t.Error("expected error for empty machine ID")
	}
	if _, err := NewCollector("m0", nil, RetryPolicy{}, BreakerConfig{}); err == nil {
		t.Error("expected error for nil injector")
	}
	if _, err := NewCollector("m0", inj, RetryPolicy{BackoffMS: -1}, BreakerConfig{}); err == nil {
		t.Error("expected error for negative backoff")
	}
	// Zero-valued policies take defaults.
	c, err := NewCollector("m0", inj, RetryPolicy{}, BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.Collect(0, okFetch); err != nil || !res.OK {
		t.Fatalf("defaulted collector failed: %+v, %v", res, err)
	}
}
