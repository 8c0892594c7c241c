package netproto

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"enki/internal/dist"
)

// RetryPolicy bounds an agent's reconnect behaviour after a link
// failure: up to MaxAttempts redials per outage, spaced by exponential
// backoff with deterministic, seedable jitter. The zero value disables
// reconnection entirely (one failure is terminal); it is what Connect
// and NewAgent use without WithRetryPolicy.
type RetryPolicy struct {
	// MaxAttempts is the number of redials per outage; 0 disables
	// reconnection.
	MaxAttempts int
	// BaseDelay is the wait before the first redial. Zero means
	// DefaultRetryBase when MaxAttempts > 0.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means DefaultRetryMax.
	MaxDelay time.Duration
	// Multiplier grows the delay per attempt; values < 1 (including
	// the zero value) mean the default factor 2.
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized: the
	// computed delay is scaled by a uniform factor in [1−Jitter,
	// 1+Jitter]. Zero means no jitter.
	Jitter float64
	// Seed parameterizes the jitter stream. Each agent splits the
	// stream by its household ID (dist.RNG labeled Split), so a fleet
	// sharing one policy still desynchronizes its retry storms while
	// every run with the same seed replays the same delays.
	Seed uint64
}

// Default retry-policy parameters.
const (
	DefaultRetryAttempts = 5
	DefaultRetryBase     = 50 * time.Millisecond
	DefaultRetryMax      = 2 * time.Second
)

// DefaultRetryPolicy returns the standard reconnect policy: 5 attempts,
// 50ms base delay doubling to a 2s cap, ±20% seeded jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: DefaultRetryAttempts,
		BaseDelay:   DefaultRetryBase,
		MaxDelay:    DefaultRetryMax,
		Multiplier:  2,
		Jitter:      0.2,
		Seed:        1,
	}
}

// Enabled reports whether the policy allows any reconnection.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 0 }

// jitterRNG returns the household's deterministic jitter stream: a
// labeled split of the policy seed, a pure function of (Seed, id).
func (p RetryPolicy) jitterRNG(id uint64) *dist.RNG {
	return dist.New(p.Seed).Split(id)
}

// Backoff returns the wait before redial number attempt (1-based):
// BaseDelay·Multiplier^(attempt−1), capped at MaxDelay, scaled by the
// jitter factor drawn from rng (nil rng or zero Jitter: no jitter).
// Given the same rng state the result is deterministic, which is what
// lets the chaos suite replay a fault scenario bit-for-bit.
func (p RetryPolicy) Backoff(attempt int, rng *dist.RNG) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	base := p.BaseDelay
	if base == 0 {
		base = DefaultRetryBase
	}
	max := p.MaxDelay
	if max == 0 {
		max = DefaultRetryMax
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(base) * math.Pow(mult, float64(attempt-1))
	if d > float64(max) {
		d = float64(max)
	}
	if rng != nil && p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}

// ParseRetryPolicy parses a -retry flag spec of comma-separated
// key=value tokens:
//
//	attempts=5,base=50ms,max=2s,mult=2,jitter=0.2,seed=1
//
// Omitted keys take the DefaultRetryPolicy values; an empty spec
// returns the zero policy (reconnection disabled).
func ParseRetryPolicy(spec string) (RetryPolicy, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return RetryPolicy{}, nil
	}
	p := DefaultRetryPolicy()
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return RetryPolicy{}, fmt.Errorf("netproto: retry policy %q: token %q is not key=value", spec, tok)
		}
		var err error
		switch key {
		case "attempts":
			p.MaxAttempts, err = strconv.Atoi(val)
		case "base":
			p.BaseDelay, err = time.ParseDuration(val)
		case "max":
			p.MaxDelay, err = time.ParseDuration(val)
		case "mult":
			p.Multiplier, err = strconv.ParseFloat(val, 64)
		case "jitter":
			p.Jitter, err = strconv.ParseFloat(val, 64)
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			return RetryPolicy{}, fmt.Errorf("netproto: retry policy %q: unknown key %q", spec, key)
		}
		if err != nil {
			return RetryPolicy{}, fmt.Errorf("netproto: retry policy %q: bad %s value %q", spec, key, val)
		}
	}
	if p.MaxAttempts < 0 {
		return RetryPolicy{}, fmt.Errorf("netproto: retry policy %q: negative attempts", spec)
	}
	return p, nil
}
