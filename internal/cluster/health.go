package cluster

import (
	"context"
	"net/http"
	"time"
)

// healthLoop probes every backend on the configured cadence until
// Close.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.ProbeAll()
		}
	}
}

// ProbeAll runs one health round over every backend. Exported so
// tests (and the health loop) drive rounds deterministically instead
// of sleeping through ticker cadence.
func (r *Router) ProbeAll() {
	r.mu.RLock()
	backends := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		backends = append(backends, b)
	}
	r.mu.RUnlock()
	for _, b := range backends {
		r.probe(b, r.probeOnce(b), time.Now())
	}
}

// probe feeds one health probe of b, answered at now, into b's
// breaker. The probe fails when /healthz did not answer 200, or when
// the slow rule trips: the backend's mean proxied latency since the
// last round exceeded SlowThreshold. The paper's faulty robot never
// announces itself — it just stops helping — so a shard slow enough to
// be useless fails the probe the way a dead one does. A failed probe is
// one more consecutive breaker failure, so QuarantineVotes failed
// probes in a row open the breaker. A healthy probe closes it only
// once its open window has lapsed. The slow verdict is kept on b
// (b.slow): until a later window clears it, healthy proxied answers do
// not reset the count, so mixed fast and slow traffic cannot undo what
// the windows judge.
func (r *Router) probe(b *backend, healthy bool, now time.Time) {
	if healthy && r.cfg.SlowThreshold > 0 {
		snap := b.hist.Snapshot()
		dc := snap.Count - b.window.Count
		ds := snap.Sum - b.window.Sum
		b.window = snap
		slow := dc > 0 && time.Duration(ds/float64(dc)*float64(time.Second)) > r.cfg.SlowThreshold
		b.slow.Store(slow)
		healthy = !slow
	}
	if healthy {
		b.breaker.probeSuccess(now)
		return
	}
	b.probeFails.Add(1)
	b.breaker.failure(now, 0)
}

// probeOnce issues one GET /healthz against b.
func (r *Router) probeOnce(b *backend) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base.String()+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
