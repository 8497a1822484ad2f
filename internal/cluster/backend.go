package cluster

import (
	"fmt"
	"net/url"
	"sync/atomic"
	"time"

	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// backend is one linesearchd process behind the router: its base URL,
// circuit breaker and telemetry. The breaker is the backend's one
// availability state; proxied attempts and health probes both feed it.
// The latency histogram feeds three consumers: the router's /metrics
// exposition, the loadgen percentile read-back, and the health
// checker's slow rule (a shard whose mean latency over a probe window
// exceeds the threshold fails the probe exactly like a dead one — the
// paper's silent-fault robot, slow enough to be useless, is treated as
// faulty).
type backend struct {
	name string // host:port, the ring member and metrics label
	base *url.URL

	breaker *breaker
	hist    *telemetry.Histogram

	requests   atomic.Int64 // proxied attempts sent to this backend
	failures   atomic.Int64 // attempts that failed (transport error or retryable status)
	probeFails atomic.Int64 // lifetime failed probes

	// The histogram at the last probe, where the slow rule's window
	// starts. Owned by the health loop.
	window telemetry.HistogramSnapshot
	// slow is the slow rule's verdict on the last probe window. While it
	// holds, a healthy proxied answer does not vouch for the backend.
	slow atomic.Bool
}

// newBackend parses a base URL into a backend. Only the scheme and
// host are kept: the router joins request paths onto it. The breaker
// records its open/half-open/close transitions into jrnl under the
// backend's name.
func newBackend(raw string, threshold int, cooldown time.Duration, jrnl *journal.Journal) (*backend, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("cluster: backend url %q: %w", raw, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: backend url %q needs a scheme and host (e.g. http://127.0.0.1:8081)", raw)
	}
	return &backend{
		name:    u.Host,
		base:    &url.URL{Scheme: u.Scheme, Host: u.Host},
		breaker: newBreaker(threshold, cooldown, u.Host, jrnl),
		hist:    telemetry.NewHistogram(),
	}, nil
}
