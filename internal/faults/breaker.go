package faults

import (
	"sync"
	"time"
)

// Breaker is the circuit breaker every resilient caller shares: a
// resilient Collector guards one machine with it in simulated seconds,
// and a dist node guards each peer with it on the wall clock. After
// FailThreshold consecutive failures the breaker opens for Cooldown and
// every call in that window is refused outright, so a dead dependency
// costs one timeout, not one per call. After the cooldown a single probe
// call decides between closing and another cooldown.
type Breaker struct {
	failThreshold int
	cooldown      time.Duration
	now           func() time.Time

	mu          sync.Mutex
	consecFails int
	open        bool
	probeAt     time.Time
	probing     bool
}

// NewBreaker builds a breaker reading time from now (nil means the wall
// clock). A non-positive threshold defaults to 3, a non-positive
// cooldown to 5 s.
func NewBreaker(failThreshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if failThreshold <= 0 {
		failThreshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{failThreshold: failThreshold, cooldown: cooldown, now: now}
}

// Allow reports whether a call may proceed. While open it returns false
// until the cooldown elapses, then admits exactly one half-open probe at
// a time; the probe's Success or Failure decides the next state.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.now().Before(b.probeAt) || b.probing {
		return false
	}
	b.probing = true
	return true
}

// Success records a successful call and closes the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	b.open = false
	b.probing = false
}

// Failure records a failed call, opening (or re-arming) the breaker once
// the threshold is reached.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	b.probing = false
	if b.open || b.consecFails >= b.failThreshold {
		b.open = true
		b.probeAt = b.now().Add(b.cooldown)
	}
}

// abandon releases an admitted probe whose call ended without an
// outcome, leaving the breaker as it was before Allow.
func (b *Breaker) abandon() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// State reports "closed", "open", or "half-open" (cooldown elapsed, next
// call is the probe).
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.open:
		return "closed"
	case !b.now().Before(b.probeAt):
		return "half-open"
	default:
		return "open"
	}
}
