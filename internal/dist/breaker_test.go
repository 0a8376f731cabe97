package dist

import "repro/internal/faults"

// NewBreaker names the shared faults.Breaker constructor Node uses for
// each peer, so the per-peer breaker tests here drive that breaker.
var NewBreaker = faults.NewBreaker
