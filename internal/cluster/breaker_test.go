package cluster

import (
	"sync"
	"testing"
	"time"
)

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := newBreaker(3, 2*time.Second, "b:1", nil)
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		b.failure(now, 0)
		if !b.allow(now) {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	b.failure(now, 0)
	if b.allow(now) {
		t.Fatal("breaker still closed after 3 consecutive failures")
	}
	if b.allow(now.Add(time.Second)) {
		t.Fatal("breaker admitted mid-cooldown")
	}
	if !b.allow(now.Add(2 * time.Second)) {
		t.Fatal("breaker still open after the cooldown elapsed")
	}
}

func TestBreakerSuccessResets(t *testing.T) {
	b := newBreaker(3, time.Second, "b:1", nil)
	now := time.Unix(1000, 0)
	b.failure(now, 0)
	b.failure(now, 0)
	b.success()
	b.failure(now, 0)
	b.failure(now, 0)
	if !b.allow(now) {
		t.Fatal("success did not reset the consecutive-failure count")
	}
}

// TestBreakerRetryAfter pins the admission-contract handling: a parsed
// Retry-After opens the breaker for exactly that long, on the first
// failure, regardless of the threshold.
func TestBreakerRetryAfter(t *testing.T) {
	b := newBreaker(3, time.Second, "b:1", nil)
	now := time.Unix(1000, 0)
	b.failure(now, 5*time.Second)
	// Threshold failures inside the window extend it but never cut it
	// short: their 1s cooldown ends before the Retry-After does.
	for i := 0; i < 3; i++ {
		b.failure(now.Add(time.Second), 0)
	}
	if b.allow(now.Add(4 * time.Second)) {
		t.Fatal("breaker ignored Retry-After")
	}
	if !b.allow(now.Add(5 * time.Second)) {
		t.Fatal("breaker open past the Retry-After window")
	}
}

// TestBreakerHalfOpenReopens pins the half-open contract: after the
// cooldown requests flow again, and the first failure re-opens for a
// full cooldown while a success closes fully.
func TestBreakerHalfOpenReopens(t *testing.T) {
	b := newBreaker(2, time.Second, "b:1", nil)
	now := time.Unix(1000, 0)
	b.failure(now, 0)
	b.failure(now, 0)
	if b.allow(now) {
		t.Fatal("breaker should be open")
	}
	halfOpen := now.Add(time.Second)
	if !b.allow(halfOpen) {
		t.Fatal("breaker should admit after cooldown")
	}
	b.failure(halfOpen, 0) // half-open probe failed
	if b.allow(halfOpen.Add(500 * time.Millisecond)) {
		t.Fatal("failed half-open probe should re-open for a full cooldown")
	}
	if !b.allow(halfOpen.Add(time.Second)) {
		t.Fatal("re-opened breaker should admit after its cooldown")
	}
	b.success()
	if !b.allow(now) || b.open(now) {
		t.Fatal("success should close the breaker entirely")
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		max  time.Duration
		want time.Duration
	}{
		{"", 5 * time.Second, 0},
		{"2", 5 * time.Second, 2 * time.Second},
		{" 3 ", 5 * time.Second, 3 * time.Second},
		{"120", 5 * time.Second, 5 * time.Second}, // capped
		{"-1", 5 * time.Second, 0},
		{"soon", 5 * time.Second, 0}, // HTTP-date form unsupported, ignored
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in, tc.max); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestBreakerHalfOpenProbeRacesSuccess pins the race the half-open
// window invites: a probe failure and an unrelated in-flight success
// land concurrently. Whatever the interleaving, the breaker must end
// in one of exactly two legal states — fully closed, or open for a
// full cooldown from the half-open instant — never a torn mix like
// "closed but one failure from re-opening forever".
func TestBreakerHalfOpenProbeRacesSuccess(t *testing.T) {
	// Both deterministic interleavings first.
	now := time.Unix(1000, 0)
	halfOpen := now.Add(time.Second)

	b := newBreaker(2, time.Second, "b:1", nil)
	b.failure(now, 0)
	b.failure(now, 0)
	b.failure(halfOpen, 0) // probe fails...
	b.success()            // ...then a straggling success lands
	if !b.allow(halfOpen) || b.open(halfOpen) {
		t.Fatal("success after a failed probe must close the breaker")
	}
	b.failure(halfOpen, 0)
	if !b.allow(halfOpen) {
		t.Fatal("the close did not reset the consecutive count: one failure re-opened")
	}

	b = newBreaker(2, time.Second, "b:1", nil)
	b.failure(now, 0)
	b.failure(now, 0)
	b.success()            // success first...
	b.failure(halfOpen, 0) // ...then the failed probe
	if !b.allow(halfOpen) {
		t.Fatal("single failure after a close must not open (threshold is 2)")
	}

	// Then genuinely concurrent, for the race detector and the
	// two-legal-states invariant.
	for i := 0; i < 100; i++ {
		b := newBreaker(2, time.Second, "b:1", nil)
		b.failure(now, 0)
		b.failure(now, 0)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); b.failure(halfOpen, 0) }()
		go func() { defer wg.Done(); b.success() }()
		wg.Wait()

		b.mu.Lock()
		closed := b.openUntil.IsZero() && b.failures <= 1
		reopened := b.openUntil.Equal(halfOpen.Add(time.Second))
		b.mu.Unlock()
		if !closed && !reopened {
			t.Fatalf("iteration %d: breaker in a torn state: %+v", i, b)
		}
	}
}

// TestBreakerRetryAfterExactlyAtCap pins the cap boundary: a
// Retry-After equal to MaxRetryAfter passes through uncapped, one
// second over is clamped, and the breaker honors the exact duration to
// the nanosecond.
func TestBreakerRetryAfterExactlyAtCap(t *testing.T) {
	const cap = 5 * time.Second
	if got := parseRetryAfter("5", cap); got != cap {
		t.Fatalf("parseRetryAfter at the cap = %v, want %v uncapped", got, cap)
	}
	if got := parseRetryAfter("6", cap); got != cap {
		t.Fatalf("parseRetryAfter(6) = %v, want clamped to %v", got, cap)
	}
	if got := parseRetryAfter("4", cap); got != 4*time.Second {
		t.Fatalf("parseRetryAfter(4) = %v, want 4s", got)
	}

	b := newBreaker(3, time.Second, "b:1", nil)
	now := time.Unix(1000, 0)
	b.failure(now, parseRetryAfter("5", cap))
	if b.allow(now.Add(cap - time.Nanosecond)) {
		t.Fatal("breaker admitted a nanosecond before the at-cap Retry-After elapsed")
	}
	if !b.allow(now.Add(cap)) {
		t.Fatal("breaker still open at exactly the at-cap Retry-After boundary")
	}
}
