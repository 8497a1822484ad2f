package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"linesearch/internal/service"
	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// SetTopology replaces the backend set. Surviving backends keep their
// breaker state, histograms and counters; new ones start fresh. After
// the ring swap, a warm transfer moves hot plan-cache entries to their
// new owners (see warmTransfer) so the reshaped fleet serves its keys
// without recompiling them. Transfer failures are logged and counted,
// never fatal: a cold cache is slow, not wrong.
func (r *Router) SetTopology(backendURLs []string) error {
	if err := ValidateBackends(backendURLs); err != nil {
		return err
	}
	next := make(map[string]*backend, len(backendURLs))
	for _, raw := range backendURLs {
		b, err := newBackend(raw, r.cfg.QuarantineVotes, r.cfg.BreakerCooldown, r.journal)
		if err != nil {
			return err
		}
		next[b.name] = b
	}

	r.mu.Lock()
	donors := make([]*backend, 0, len(r.backends))
	for name, old := range r.backends {
		donors = append(donors, old)
		if _, keep := next[name]; keep {
			next[name] = old // preserve breaker/health/telemetry state
		}
	}
	sort.Slice(donors, func(i, j int) bool { return donors[i].name < donors[j].name })
	ring := NewRing(r.cfg.VNodes)
	for name := range next {
		ring.Add(name)
	}
	r.backends = next
	r.ring = ring
	r.mu.Unlock()

	r.logger.Info("topology updated", "backends", ring.Members())
	r.journal.Record(context.Background(), journal.TopologyChange, "",
		strings.Join(ring.Members(), ","))
	if r.cfg.WarmKeys >= 0 {
		r.warmTransfer(donors, ring, next)
	}
	return nil
}

// warmTransfer rehomes hot plan-cache entries after a ring swap. Every
// pre-change backend is a donor: its hottest WarmKeys entries are
// exported, the ones whose owner moved are regrouped by new owner, and
// each owner gets a re-sealed sub-snapshot to import. Donors that are
// gone (the backend being removed probably died — that is why it is
// being removed) just cost a failed export; their keys rebuild on
// first miss like any cold key.
func (r *Router) warmTransfer(donors []*backend, ring *Ring, current map[string]*backend) {
	// The transfer gets a root trace of its own: each export and import
	// leg carries its traceparent, so a reshape shows up at
	// /debug/fleet-traces as one trace spanning the router and every
	// donor/recipient shard it touched.
	ctx, span := r.tracer.StartRequest(context.Background(), "warm-transfer", "")
	if span != nil {
		span.SetInt("donors", int64(len(donors)))
		defer span.End()
	}
	r.warmRuns.Add(1)
	grouped := make(map[string][]service.CacheSnapshotEntry)
	for _, donor := range donors {
		snap, err := r.fetchSnapshot(ctx, donor)
		if err != nil {
			r.warmErrors.Add(1)
			r.logger.Warn("warm transfer: export failed", "donor", donor.name, "err", err)
			continue
		}
		for _, e := range snap.Entries {
			owner := ring.Owner(e.Key.Hash())
			if owner == "" || owner == donor.name {
				continue // key stayed home; nothing to move
			}
			grouped[owner] = append(grouped[owner], e)
		}
	}
	for owner, entries := range grouped {
		b := current[owner]
		if b == nil {
			continue
		}
		sub := service.NewCacheSnapshot(entries)
		if err := r.pushSnapshot(ctx, b, sub); err != nil {
			r.warmErrors.Add(1)
			r.logger.Warn("warm transfer: import failed", "target", owner, "err", err)
			continue
		}
		r.warmKeys.Add(int64(len(entries)))
		r.logger.Info("warm transfer: entries moved", "target", owner, "entries", len(entries))
	}
}

// fetchSnapshot exports the donor's hottest entries.
func (r *Router) fetchSnapshot(ctx context.Context, b *backend) (service.CacheSnapshot, error) {
	ctx, span := telemetry.StartSpan(ctx, "snapshot-export")
	if span != nil {
		span.SetStr("donor", b.name)
		defer span.End()
	}
	var snap service.CacheSnapshot
	url := fmt.Sprintf("%s/v1/cache/snapshot?limit=%d", b.base, r.cfg.WarmKeys)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return snap, err
	}
	if tp := telemetry.Traceparent(ctx); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("export returned %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, r.cfg.MaxResponseBody))
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, fmt.Errorf("decode export: %w", err)
	}
	return snap, nil
}

// pushSnapshot imports a sealed sub-snapshot into its new owner.
func (r *Router) pushSnapshot(ctx context.Context, b *backend, snap service.CacheSnapshot) error {
	ctx, span := telemetry.StartSpan(ctx, "snapshot-import")
	if span != nil {
		span.SetStr("target", b.name)
		span.SetInt("entries", int64(len(snap.Entries)))
		defer span.End()
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, b.base.String()+"/v1/cache/snapshot", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := telemetry.Traceparent(ctx); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("import returned %s: %s", resp.Status, body)
	}
	return nil
}
