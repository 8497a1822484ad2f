package cluster

import (
	"net/http"
	"sync/atomic"
	"time"
)

// sloWindows are the burn-rate evaluation windows, shortest first. The
// classic multi-window rule: the short window catches a fast burn
// (page now), the long window catches a slow leak (ticket), and
// requiring both to fire suppresses flapping.
var sloWindows = []struct {
	label string
	d     time.Duration
}{
	{"5m", 5 * time.Minute},
	{"1h", time.Hour},
}

// sloBuckets is one ring slot per minute of the longest window.
const sloBuckets = 61

// sloBucket is one minute of routed-request outcomes. The minute stamp
// is stored alongside the counters so a slot left over from an earlier
// hour reads as empty instead of leaking stale counts into a window.
type sloBucket struct {
	minute   atomic.Int64 // unix minute this slot currently belongs to
	requests atomic.Int64
	errors   atomic.Int64 // 5xx answers to the client
	slow     atomic.Int64 // latency over the budget
}

// sloMonitor aggregates per-minute outcome counts and computes
// error-rate and latency-budget burn rates over the multi-window set.
// Burn rate is the standard SRE definition: the fraction of the error
// budget consumed per unit time, normalized so 1.0 means "burning
// exactly at the rate the objective allows" —
//
//	burn = badFraction / (1 - objective)
//
// A 99% objective with 2% of requests failing burns at 2.0: the budget
// is gone in half the period. Counting is lock-free (atomics on a
// fixed ring); the reset race at a minute boundary can lose a handful
// of observations, which is noise at SLO horizons.
type sloMonitor struct {
	objective float64       // fraction of requests that must be good
	budget    time.Duration // latency budget per request
	now       func() time.Time
	buckets   [sloBuckets]sloBucket
}

// newSLOMonitor applies defaults: 99% objective, 250ms latency budget.
func newSLOMonitor(objective float64, budget time.Duration, now func() time.Time) *sloMonitor {
	if objective <= 0 || objective >= 1 {
		objective = 0.99
	}
	if budget <= 0 {
		budget = 250 * time.Millisecond
	}
	if now == nil {
		now = time.Now
	}
	return &sloMonitor{objective: objective, budget: budget, now: now}
}

// observe records one routed request's final client-visible outcome.
func (m *sloMonitor) observe(status int, elapsed time.Duration) {
	minute := m.now().Unix() / 60
	b := &m.buckets[minute%sloBuckets]
	if got := b.minute.Load(); got != minute {
		// First writer of a new minute claims the slot and clears it.
		// A racing observer from the stale minute may add one count to
		// the fresh slot (or lose one) — tolerated, see type comment.
		if b.minute.CompareAndSwap(got, minute) {
			b.requests.Store(0)
			b.errors.Store(0)
			b.slow.Store(0)
		}
	}
	b.requests.Add(1)
	if status >= http.StatusInternalServerError {
		b.errors.Add(1)
	}
	if elapsed > m.budget {
		b.slow.Add(1)
	}
}

// window sums the buckets falling inside the last d.
func (m *sloMonitor) window(d time.Duration) (requests, errors, slow int64) {
	nowMinute := m.now().Unix() / 60
	span := int64(d / time.Minute)
	if span < 1 {
		span = 1
	}
	for i := range m.buckets {
		b := &m.buckets[i]
		minute := b.minute.Load()
		if minute > nowMinute-span && minute <= nowMinute {
			requests += b.requests.Load()
			errors += b.errors.Load()
			slow += b.slow.Load()
		}
	}
	return requests, errors, slow
}

// SLOWindow is one window's burn reading on /healthz and /metrics.
type SLOWindow struct {
	Window          string  `json:"window"`
	Requests        int64   `json:"requests"`
	ErrorRate       float64 `json:"error_rate"`
	ErrorBurnRate   float64 `json:"error_burn_rate"`
	SlowRate        float64 `json:"slow_rate"`
	LatencyBurnRate float64 `json:"latency_burn_rate"`
}

// SLOStats is the monitor's snapshot.
type SLOStats struct {
	Objective            float64     `json:"objective"`
	LatencyBudgetSeconds float64     `json:"latency_budget_seconds"`
	Windows              []SLOWindow `json:"windows"`
}

// snapshot evaluates every window.
func (m *sloMonitor) snapshot() SLOStats {
	st := SLOStats{
		Objective:            m.objective,
		LatencyBudgetSeconds: m.budget.Seconds(),
		Windows:              make([]SLOWindow, 0, len(sloWindows)),
	}
	budgetFraction := 1 - m.objective
	for _, w := range sloWindows {
		requests, errors, slow := m.window(w.d)
		win := SLOWindow{Window: w.label, Requests: requests}
		if requests > 0 {
			win.ErrorRate = float64(errors) / float64(requests)
			win.SlowRate = float64(slow) / float64(requests)
			win.ErrorBurnRate = win.ErrorRate / budgetFraction
			win.LatencyBurnRate = win.SlowRate / budgetFraction
		}
		st.Windows = append(st.Windows, win)
	}
	return st
}

// sloRecorder captures the status the proxy handler finally wrote, so
// the monitor observes the client-visible outcome (after retries
// and failover), not any individual backend attempt.
type sloRecorder struct {
	http.ResponseWriter
	status int
}

func (r *sloRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *sloRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}
