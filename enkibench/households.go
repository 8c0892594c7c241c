package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/netproto"
	"enki/internal/profile"
)

// traceSeedSalt separates the program's trace seed from the profile
// stream drawn from the same workload seed.
const traceSeedSalt = 0x74726163 // "trac"

// drawTypes draws n truthful households from the Section VI profiles,
// each declaring its wide window as its true preference.
func drawTypes(seed uint64, n int) ([]core.Type, error) {
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(seed))
	if err != nil {
		return nil, fmt.Errorf("profile generator: %w", err)
	}
	types := make([]core.Type, n)
	for i := range types {
		types[i] = gen.Draw().TypeWide()
	}
	return types, nil
}

// traceSeed derives the WithTraceSeed value from the workload seed.
func traceSeed(seed uint64) uint64 {
	return dist.New(seed).Split(traceSeedSalt).Uint64()
}

// capture is what the household policies record on a traced day: when
// each household was asked to report, told its allocation and paid, and
// the allocation and payment it saw. Slot i belongs to household i.
// Timestamps are nanoseconds since epoch; 0 means "not called". Only
// callbacks for the traced day count: an agent may still be handling
// the previous day's payment when the next day starts.
type capture struct {
	epoch    time.Time
	day      atomic.Int64 // the traced day; 0 = not recording
	report   []atomic.Int64
	consume  []atomic.Int64
	feedback []atomic.Int64
	assigned []core.Interval
	paid     []netproto.PaymentDetail
	billed   atomic.Int64
}

func newCapture(epoch time.Time, n int) *capture {
	return &capture{
		epoch:    epoch,
		report:   make([]atomic.Int64, n),
		consume:  make([]atomic.Int64, n),
		feedback: make([]atomic.Int64, n),
		assigned: make([]core.Interval, n),
		paid:     make([]netproto.PaymentDetail, n),
	}
}

func (c *capture) now() int64 { return time.Since(c.epoch).Nanoseconds() }

// start clears the slots and records the callbacks of day.
func (c *capture) start(day int) {
	for i := range c.report {
		c.report[i].Store(0)
		c.consume[i].Store(0)
		c.feedback[i].Store(0)
	}
	c.billed.Store(0)
	c.day.Store(int64(day))
}

func (c *capture) stop() { c.day.Store(0) }

func (c *capture) recording(day int) bool { return c.day.Load() == int64(day) }

// waitBilled waits until n households received the day's payment.
// Agents over TCP may still be handling their payment frames when the
// center's day returns.
func (c *capture) waitBilled(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for c.billed.Load() < int64(n) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d households received their payment within %v", c.billed.Load(), n, timeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// span returns [first, last] of the non-zero timestamps in ts[lo:hi].
func span(ts []atomic.Int64, lo, hi int) (first, last int64) {
	for i := lo; i < hi; i++ {
		v := ts[i].Load()
		if v == 0 {
			continue
		}
		if first == 0 || v < first {
			first = v
		}
		if v > last {
			last = v
		}
	}
	return first, last
}

// household is a truthful Section VI household: it reports its true
// preference and consumes exactly its allocation, like
// netproto.Truthful, and on a traced day records what it saw.
type household struct {
	typ core.Type
	i   int
	cap *capture
}

var _ netproto.Policy = (*household)(nil)

// Report implements netproto.Policy.
func (h *household) Report(day int) core.Preference {
	if h.cap.recording(day) {
		h.cap.report[h.i].Store(h.cap.now())
	}
	return h.typ.True
}

// Consume implements netproto.Policy.
func (h *household) Consume(day int, allocation core.Interval) core.Interval {
	if h.cap.recording(day) {
		h.cap.assigned[h.i] = allocation
		h.cap.consume[h.i].Store(h.cap.now())
	}
	return allocation
}

// Feedback implements netproto.Policy.
func (h *household) Feedback(day int, detail netproto.PaymentDetail) {
	if h.cap.recording(day) {
		h.cap.paid[h.i] = detail
		h.cap.feedback[h.i].Store(h.cap.now())
		h.cap.billed.Add(1)
	}
}

// households builds one policy per type, sharing c.
func households(types []core.Type, c *capture) []*household {
	hs := make([]*household, len(types))
	for i, t := range types {
		hs[i] = &household{typ: t, i: i, cap: c}
	}
	return hs
}
