package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"linesearch/internal/faultpoint"
	"linesearch/internal/sweep"
	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// SweepsRingKey is the ring key the whole sweep API is pinned to —
// the router's routingPolicy and the replicator's owner placement must
// hash the same key, or a failed-over sweep request would land on a
// backend that never received the replicated checkpoints.
const SweepsRingKey = "sweeps"

// fpReplicate is the fault point on every replication send; the
// per-peer form fpReplicate+"."+<host:port> lets chaos schedules drop
// replication to exactly one backend, exercising hinted handoff.
const fpReplicate = "cluster.replicate"

// maxReplicaResponse bounds one fetched checkpoint or digest.
const maxReplicaResponse = 16 << 20

// ReplicatorConfig tunes a Replicator. Self and the three local
// accessors are required; everything else defaults.
type ReplicatorConfig struct {
	// Self is this backend's own advertised URL; it is excluded from
	// push targets (the home copy is already on disk here).
	Self string
	// RF is the total owners per sweep checkpoint, the home included —
	// the paper's f+1 rule with f = RF-1 (default 2: survive any one
	// crash).
	RF int
	// HintLimit bounds the per-peer handoff spool, in checkpoints.
	// Hints are latest-wins per job, so the spool holds at most one
	// entry per job; overflow drops the oldest job's hint and counts it
	// (default 64).
	HintLimit int
	// VNodes is the placement ring's virtual-node count (default
	// DefaultVNodes; must match the router's so owner walks agree).
	VNodes int
	// Timeout bounds one replication request (default 5s).
	Timeout time.Duration
	// Client performs the requests (default: a client with Timeout).
	Client *http.Client
	// Logger receives structured replication logs (default
	// slog.Default()).
	Logger *slog.Logger
	// Tracer, when set, roots a trace on each Replicate/AntiEntropy
	// call that arrives with an untraced context, so replication legs
	// show up in fleet-trace stitching even when driven by timers.
	Tracer *telemetry.Tracer
	// Journal, when set, receives hint and anti-entropy events
	// (nil-safe: a nil journal records nothing).
	Journal *journal.Journal

	// LocalDigest summarizes every checkpoint this backend holds (home
	// and replica), keyed by job ID — this side of an anti-entropy
	// comparison.
	LocalDigest func() map[string]sweep.CheckpointInfo
	// LoadLocal fetches a locally held checkpoint for pushing to a
	// lagging peer (missing is nil, nil).
	LoadLocal func(id string) (*sweep.Checkpoint, error)
	// Apply stores a checkpoint fetched from a peer that was ahead of
	// us (the replica-store put).
	Apply func(sweep.Checkpoint) error
}

// ReplicatorStats are the replication counters, read in process
// through Replicator.Stats.
type ReplicatorStats struct {
	// Replicated counts checkpoints accepted by a peer; Failed counts
	// sends that errored after reaching for a live peer.
	Replicated int64 `json:"replicated"`
	Failed     int64 `json:"failed"`
	// Hinted counts checkpoints spooled for a down peer; HintsDropped
	// counts spool overflow evictions; HintsReplayed counts hints
	// delivered after the peer came back.
	Hinted        int64 `json:"hinted"`
	HintsDropped  int64 `json:"hints_dropped"`
	HintsReplayed int64 `json:"hints_replayed"`
	// HintsPending is the current spool size across peers.
	HintsPending int `json:"hints_pending"`
	// AntiEntropyRuns counts completed anti-entropy sweeps;
	// RepairsPushed/RepairsPulled count checkpoints moved to heal
	// divergence.
	AntiEntropyRuns int64 `json:"anti_entropy_runs"`
	RepairsPushed   int64 `json:"repairs_pushed"`
	RepairsPulled   int64 `json:"repairs_pulled"`
}

// Replicator streams fsynced sweep checkpoints to the next RF-1 ring
// owners, spools hints for peers that are down, and runs anti-entropy
// digest comparisons to repair divergence after partitions. It is the
// serving-layer analogue of the paper's fault budget: with RF = f+1,
// any f lost backends lose no completed sweep cell.
//
// Membership drives the target set: SetMembers replaces the alive
// peer list (from gossip or static topology). A checkpoint's owners
// are computed on the same ring geometry the router uses, so the
// backend a sweep fails over to is exactly the one holding its
// replica. Create with NewReplicator; safe for concurrent use.
type Replicator struct {
	cfg    ReplicatorConfig
	client *http.Client
	logger *slog.Logger

	mu    sync.Mutex
	ring  *Ring
	urls  map[string]string    // ring member (host:port) -> base URL
	hints map[string]hintSpool // ring member -> pending handoffs

	replicated    atomic.Int64
	failed        atomic.Int64
	hinted        atomic.Int64
	hintsDropped  atomic.Int64
	hintsReplayed atomic.Int64
	aeRuns        atomic.Int64
	repairsPushed atomic.Int64
	repairsPulled atomic.Int64
}

// hintSpool is one peer's pending handoffs: latest checkpoint per job,
// with FIFO order of first arrival for bounded eviction.
type hintSpool struct {
	byJob map[string]sweep.Checkpoint
	order []string
}

// NewReplicator builds a Replicator. The member set starts empty;
// call SetMembers before the first Replicate.
func NewReplicator(cfg ReplicatorConfig) (*Replicator, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: replicator needs its own URL")
	}
	if cfg.LocalDigest == nil || cfg.LoadLocal == nil || cfg.Apply == nil {
		return nil, fmt.Errorf("cluster: replicator needs LocalDigest, LoadLocal and Apply")
	}
	if _, err := memberName(cfg.Self); err != nil {
		return nil, err
	}
	if cfg.RF < 2 {
		cfg.RF = 2
	}
	if cfg.HintLimit < 1 {
		cfg.HintLimit = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.Timeout}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Replicator{
		cfg:    cfg,
		client: cfg.Client,
		logger: cfg.Logger,
		ring:   NewRing(cfg.VNodes),
		urls:   make(map[string]string),
		hints:  make(map[string]hintSpool),
	}, nil
}

// memberName maps a backend URL to its ring member name (host:port),
// matching the router's naming so owner walks agree.
func memberName(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("cluster: replicator peer url %q needs a scheme and host", raw)
	}
	return u.Host, nil
}

// SetMembers replaces the alive peer set (this backend included or
// not — Self is always implicitly a member). Hints for peers that are
// alive again are NOT replayed here: replay happens on the next
// Replicate to that peer or the next AntiEntropy pass, keeping this
// safe to call from a gossip callback.
func (r *Replicator) SetMembers(alive []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fresh := NewRing(r.cfg.VNodes)
	urls := make(map[string]string, len(alive)+1)
	for _, raw := range append([]string{r.cfg.Self}, alive...) {
		name, err := memberName(raw)
		if err != nil {
			r.logger.Warn("replicator ignoring bad member url", "url", raw, "err", err)
			continue
		}
		if _, dup := urls[name]; dup {
			continue
		}
		urls[name] = raw
		fresh.Add(name)
	}
	r.ring = fresh
	r.urls = urls
}

// Owners returns the ring members owning the sweep key right now, up
// to RF, in preference order — the home first.
func (r *Replicator) Owners() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Owners(SweepsRingKey, r.cfg.RF)
}

// Replicate pushes one fsynced checkpoint to the RF-1 non-self owners
// of the sweeps key, synchronously. A peer that is not in the current
// member set, or that fails the push, gets the checkpoint spooled as a
// hint; any pending hints for a peer that just accepted a push are
// replayed while it is known reachable. Returns the number of live
// replicas that accepted the checkpoint.
func (r *Replicator) Replicate(ctx context.Context, cp sweep.Checkpoint) int {
	if telemetry.SpanFrom(ctx) == nil && r.cfg.Tracer != nil {
		var root *telemetry.Span
		ctx, root = r.cfg.Tracer.StartRequest(ctx, "replicate", "")
		if root != nil {
			root.SetStr("job", cp.ID)
			defer root.End()
		}
	}
	selfName, _ := memberName(r.cfg.Self)
	r.mu.Lock()
	owners := r.ring.Owners(SweepsRingKey, r.cfg.RF)
	targets := make(map[string]string, len(owners)) // member -> url
	for _, name := range owners {
		if name == selfName {
			continue
		}
		targets[name] = r.urls[name]
	}
	r.mu.Unlock()

	accepted := 0
	for _, target := range sortedByKey(targets) {
		if err := r.push(ctx, target.url, cp); err != nil {
			r.failed.Add(1)
			r.logger.Warn("checkpoint replication failed; hinting",
				"job", cp.ID, "peer", target.name, "err", err)
			r.hint(ctx, target.name, cp)
			continue
		}
		r.replicated.Add(1)
		accepted++
		r.replayHints(ctx, target.name, target.url)
	}
	return accepted
}

// sortedByKey iterates a member->url map deterministically.
type namedTarget struct{ name, url string }

func sortedByKey(m map[string]string) []namedTarget {
	out := make([]namedTarget, 0, len(m))
	for name, u := range m {
		out = append(out, namedTarget{name, u})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// push PUTs one checkpoint to a peer's replica endpoint.
func (r *Replicator) push(ctx context.Context, baseURL string, cp sweep.Checkpoint) error {
	name, _ := memberName(baseURL)
	if err := faultpoint.Hit(fpReplicate); err != nil {
		return err
	}
	if err := faultpoint.Hit(fpReplicate + "." + name); err != nil {
		return err
	}
	if baseURL == "" {
		return fmt.Errorf("cluster: peer %s is not in the member set", name)
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("cluster: marshal checkpoint: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		baseURL+"/v1/replica/checkpoints/"+url.PathEscape(cp.ID), bytes.NewReader(blob))
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
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxReplicaResponse))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peer %s answered %d", name, resp.StatusCode)
	}
	return nil
}

// hint spools a checkpoint for a currently unreachable peer,
// latest-wins per job, bounded by HintLimit per peer.
func (r *Replicator) hint(ctx context.Context, peer string, cp sweep.Checkpoint) {
	r.mu.Lock()
	spool, ok := r.hints[peer]
	if !ok {
		spool = hintSpool{byJob: make(map[string]sweep.Checkpoint)}
	}
	var dropped string
	if _, held := spool.byJob[cp.ID]; !held {
		if len(spool.order) >= r.cfg.HintLimit {
			dropped = spool.order[0]
			spool.order = spool.order[1:]
			delete(spool.byJob, dropped)
			r.hintsDropped.Add(1)
		}
		spool.order = append(spool.order, cp.ID)
	}
	spool.byJob[cp.ID] = cp
	r.hints[peer] = spool
	r.hinted.Add(1)
	r.mu.Unlock()
	if dropped != "" {
		r.logger.Warn("hint spool full; dropped oldest", "peer", peer, "job", dropped)
		r.cfg.Journal.Record(ctx, journal.HintDrop, peer, "spool full, dropped job "+dropped)
	}
	r.cfg.Journal.Record(ctx, journal.HintSpool, peer, "job "+cp.ID)
}

// takeHints drains a peer's spool for replay.
func (r *Replicator) takeHints(peer string) []sweep.Checkpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	spool, ok := r.hints[peer]
	if !ok {
		return nil
	}
	delete(r.hints, peer)
	out := make([]sweep.Checkpoint, 0, len(spool.order))
	for _, id := range spool.order {
		out = append(out, spool.byJob[id])
	}
	return out
}

// replayHints delivers a peer's spooled checkpoints now that it is
// reachable; anything that fails again goes straight back on the
// spool.
func (r *Replicator) replayHints(ctx context.Context, peer, baseURL string) {
	for _, cp := range r.takeHints(peer) {
		if err := r.push(ctx, baseURL, cp); err != nil {
			r.logger.Warn("hint replay failed; re-spooling", "peer", peer, "job", cp.ID, "err", err)
			r.hint(ctx, peer, cp)
			continue
		}
		r.hintsReplayed.Add(1)
		r.cfg.Journal.Record(ctx, journal.HintReplay, peer, "job "+cp.ID)
	}
}

// peerDigest fetches a peer's combined home+replica digest.
func (r *Replicator) peerDigest(ctx context.Context, baseURL string) (map[string]sweep.CheckpointInfo, error) {
	name, _ := memberName(baseURL)
	if err := faultpoint.Hit(fpReplicate); err != nil {
		return nil, err
	}
	if err := faultpoint.Hit(fpReplicate + "." + name); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/replica/digest", nil)
	if err != nil {
		return nil, err
	}
	if tp := telemetry.Traceparent(ctx); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxReplicaResponse))
		return nil, fmt.Errorf("cluster: peer %s digest answered %d", name, resp.StatusCode)
	}
	var body struct {
		Home    map[string]sweep.CheckpointInfo `json:"home"`
		Replica map[string]sweep.CheckpointInfo `json:"replica"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxReplicaResponse)).Decode(&body); err != nil {
		return nil, err
	}
	merged := make(map[string]sweep.CheckpointInfo, len(body.Home)+len(body.Replica))
	for id, info := range body.Replica {
		merged[id] = info
	}
	for id, info := range body.Home {
		// The home copy wins a tie: it is the authoritative writer.
		if held, ok := merged[id]; !ok || info.Newer(held) || info.Checksum == held.Checksum {
			merged[id] = info
		}
	}
	return merged, nil
}

// fetch GETs one checkpoint from a peer.
func (r *Replicator) fetch(ctx context.Context, baseURL, id string) (*sweep.Checkpoint, error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		baseURL+"/v1/replica/checkpoints/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	if tp := telemetry.Traceparent(ctx); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxReplicaResponse))
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxReplicaResponse))
		return nil, fmt.Errorf("cluster: peer checkpoint answered %d", resp.StatusCode)
	}
	var cp sweep.Checkpoint
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxReplicaResponse)).Decode(&cp); err != nil {
		return nil, err
	}
	if err := cp.Verify(); err != nil {
		return nil, err
	}
	return &cp, nil
}

// AntiEntropy runs one repair pass against every non-self owner of
// the sweeps key: replay pending hints, compare digests, push local
// checkpoints the peer lacks or holds stale, and pull peer checkpoints
// that are ahead of ours. Returns the number of repairs (pushed plus
// pulled). Divergence after a healed partition converges in one pass
// from each side.
func (r *Replicator) AntiEntropy(ctx context.Context) int {
	if telemetry.SpanFrom(ctx) == nil && r.cfg.Tracer != nil {
		var root *telemetry.Span
		ctx, root = r.cfg.Tracer.StartRequest(ctx, "anti-entropy", "")
		if root != nil {
			defer root.End()
		}
	}
	selfName, _ := memberName(r.cfg.Self)
	r.mu.Lock()
	owners := r.ring.Owners(SweepsRingKey, r.cfg.RF)
	targets := make(map[string]string, len(owners))
	for _, name := range owners {
		if name != selfName {
			targets[name] = r.urls[name]
		}
	}
	r.mu.Unlock()

	repairs := 0
	for _, target := range sortedByKey(targets) {
		if target.url == "" {
			continue
		}
		r.replayHints(ctx, target.name, target.url)
		theirs, err := r.peerDigest(ctx, target.url)
		if err != nil {
			r.logger.Warn("anti-entropy digest failed", "peer", target.name, "err", err)
			continue
		}
		ours := r.cfg.LocalDigest()
		for id, mine := range ours {
			held, ok := theirs[id]
			if ok && (held.Checksum == mine.Checksum || !mine.Newer(held)) {
				continue
			}
			cp, err := r.cfg.LoadLocal(id)
			if err != nil || cp == nil {
				continue
			}
			if err := r.push(ctx, target.url, *cp); err != nil {
				r.logger.Warn("anti-entropy push failed", "peer", target.name, "job", id, "err", err)
				continue
			}
			r.repairsPushed.Add(1)
			repairs++
			r.cfg.Journal.Record(ctx, journal.AntiEntropyRepair, target.name, "pushed job "+id)
		}
		for id, held := range theirs {
			mine, ok := ours[id]
			if ok && (mine.Checksum == held.Checksum || !held.Newer(mine)) {
				continue
			}
			cp, err := r.fetch(ctx, target.url, id)
			if err != nil || cp == nil {
				continue
			}
			if err := r.cfg.Apply(*cp); err != nil {
				r.logger.Warn("anti-entropy apply failed", "peer", target.name, "job", id, "err", err)
				continue
			}
			r.repairsPulled.Add(1)
			repairs++
			r.cfg.Journal.Record(ctx, journal.AntiEntropyRepair, target.name, "pulled job "+id)
		}
	}
	r.aeRuns.Add(1)
	return repairs
}

// Stats snapshots the replication counters.
func (r *Replicator) Stats() ReplicatorStats {
	r.mu.Lock()
	pending := 0
	for _, spool := range r.hints {
		pending += len(spool.order)
	}
	r.mu.Unlock()
	return ReplicatorStats{
		Replicated:      r.replicated.Load(),
		Failed:          r.failed.Load(),
		Hinted:          r.hinted.Load(),
		HintsDropped:    r.hintsDropped.Load(),
		HintsReplayed:   r.hintsReplayed.Load(),
		HintsPending:    pending,
		AntiEntropyRuns: r.aeRuns.Load(),
		RepairsPushed:   r.repairsPushed.Load(),
		RepairsPulled:   r.repairsPulled.Load(),
	}
}
