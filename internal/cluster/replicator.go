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

// fpReplicate is the fault point on every replication request —
// push, digest and fetch alike; the per-peer form
// fpReplicate+"."+<host:port> partitions replication to exactly one
// backend.
const fpReplicate = "cluster.replicate"

// maxReplicaResponse bounds one fetched checkpoint or digest.
const maxReplicaResponse = 16 << 20

// ReplicatorConfig tunes a Replicator. Self, HomeDir and Store are
// required; everything else defaults.
type ReplicatorConfig struct {
	// Self is this backend's own advertised URL; it is excluded from
	// push targets (the home copy is already on disk here).
	Self string
	// RF is the total owners per sweep checkpoint, the home included —
	// the paper's f+1 rule with f = RF-1 (default 2: survive any one
	// crash).
	RF int
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
	// Journal, when set, receives anti-entropy repair events (nil-safe:
	// a nil journal records nothing).
	Journal *journal.Journal

	// HomeDir is the sweep manager's checkpoint directory and Store
	// the replica store: together this side of an anti-entropy
	// comparison, read through Store.Local and Store.LoadLocal, and
	// Store receives the checkpoints pulled from peers that are ahead.
	HomeDir string
	Store   *sweep.ReplicaStore
}

// Replicator streams fsynced sweep checkpoints to the next RF-1 ring
// owners and runs anti-entropy digest comparisons that repair any
// owner a push missed. It is the serving-layer analogue of the paper's
// fault budget: with RF = f+1, any f lost backends lose no completed
// sweep cell.
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

	mu   sync.Mutex
	ring *Ring
	urls map[string]string // ring member (host:port) -> base URL
}

// NewReplicator builds a Replicator. The member set starts empty;
// call SetMembers before the first Replicate.
func NewReplicator(cfg ReplicatorConfig) (*Replicator, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: replicator needs its own URL")
	}
	if cfg.HomeDir == "" || cfg.Store == nil {
		return nil, fmt.Errorf("cluster: replicator needs HomeDir and Store")
	}
	if _, err := memberName(cfg.Self); err != nil {
		return nil, err
	}
	if cfg.RF < 2 {
		cfg.RF = 2
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
// not — Self is always implicitly a member). It only swaps the ring,
// so it is safe to call from a gossip callback; a peer that comes back
// is repaired by the next AntiEntropy pass.
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

// peers returns the non-self owners of the sweeps key, ordered by
// member name.
func (r *Replicator) peers() []namedTarget {
	selfName, _ := memberName(r.cfg.Self)
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []namedTarget
	for _, name := range r.ring.Owners(SweepsRingKey, r.cfg.RF) {
		if name != selfName {
			out = append(out, namedTarget{name, r.urls[name]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// namedTarget is one peer: its ring member name and base URL.
type namedTarget struct{ name, url string }

// Replicate pushes one fsynced checkpoint to the RF-1 non-self owners
// of the sweeps key, synchronously, and returns how many accepted it.
// A failed push is logged and nothing else: the checkpoint is durable
// here, so the next AntiEntropy pass finds the peer behind and pushes
// the newest copy from disk.
func (r *Replicator) Replicate(ctx context.Context, cp sweep.Checkpoint) int {
	if telemetry.SpanFrom(ctx) == nil && r.cfg.Tracer != nil {
		var root *telemetry.Span
		ctx, root = r.cfg.Tracer.StartRequest(ctx, "replicate", "")
		if root != nil {
			root.SetStr("job", cp.ID)
			defer root.End()
		}
	}
	accepted := 0
	for _, target := range r.peers() {
		if err := r.push(ctx, target.url, cp); err != nil {
			r.logger.Warn("checkpoint replication failed; anti-entropy will repair it",
				"job", cp.ID, "peer", target.name, "err", err)
			continue
		}
		accepted++
	}
	return accepted
}

// call sends one replication request to a peer and hands a 200 body,
// bounded by maxReplicaResponse, to decode (nil discards it). Pushes,
// digests and fetches all go through here, so every one honours the
// cluster.replicate fault points, the Timeout and the caller's
// traceparent, and drains at most maxReplicaResponse of any body.
func (r *Replicator) call(ctx context.Context, method, baseURL, path string, body []byte, decode func(io.Reader) error) error {
	name, _ := memberName(baseURL)
	if err := faultpoint.Hit(fpReplicate); err != nil {
		return err
	}
	if err := faultpoint.Hit(fpReplicate + "." + name); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	var reqBody io.Reader
	if body != nil {
		reqBody = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, baseURL+path, reqBody)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp := telemetry.Traceparent(ctx); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	bounded := io.LimitReader(resp.Body, maxReplicaResponse)
	defer io.Copy(io.Discard, bounded)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peer %s answered %d to %s %s", name, resp.StatusCode, method, path)
	}
	if decode == nil {
		return nil
	}
	return decode(bounded)
}

// checkpointURLPath is a job's path on the replica endpoint.
func checkpointURLPath(id string) string {
	return "/v1/replica/checkpoints/" + url.PathEscape(id)
}

// push PUTs one checkpoint to a peer's replica endpoint.
func (r *Replicator) push(ctx context.Context, baseURL string, cp sweep.Checkpoint) error {
	blob, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("cluster: marshal checkpoint: %w", err)
	}
	return r.call(ctx, http.MethodPut, baseURL, checkpointURLPath(cp.ID), blob, nil)
}

// peerDigest fetches a peer's digest, merged by the same rule that
// picks our own local copy.
func (r *Replicator) peerDigest(ctx context.Context, baseURL string) (map[string]sweep.CheckpointInfo, error) {
	var d sweep.Digest
	err := r.call(ctx, http.MethodGet, baseURL, "/v1/replica/digest", nil, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&d)
	})
	if err != nil {
		return nil, err
	}
	return d.Merged(), nil
}

// fetch GETs one checkpoint from a peer; the store verifies it on Put.
func (r *Replicator) fetch(ctx context.Context, baseURL, id string) (sweep.Checkpoint, error) {
	var cp sweep.Checkpoint
	err := r.call(ctx, http.MethodGet, baseURL, checkpointURLPath(id), nil, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&cp)
	})
	return cp, err
}

// AntiEntropy runs one repair pass against every non-self owner of
// the sweeps key: compare digests, push local checkpoints the peer
// lacks or holds stale, and pull peer checkpoints that are ahead of
// ours. It is the one repair path for a missed push, and it reads the
// fsynced files, so nothing is lost with the process. Returns the
// number of repairs (pushed plus pulled), each journalled as an
// anti_entropy_repair event naming the job. Divergence after a healed
// partition converges in one pass from each side.
func (r *Replicator) AntiEntropy(ctx context.Context) int {
	if telemetry.SpanFrom(ctx) == nil && r.cfg.Tracer != nil {
		var root *telemetry.Span
		ctx, root = r.cfg.Tracer.StartRequest(ctx, "anti-entropy", "")
		if root != nil {
			defer root.End()
		}
	}
	store, home := r.cfg.Store, r.cfg.HomeDir
	repairs := 0
	for _, target := range r.peers() {
		theirs, err := r.peerDigest(ctx, target.url)
		if err != nil {
			r.logger.Warn("anti-entropy digest failed", "peer", target.name, "err", err)
			continue
		}
		ours := store.Local(home).Merged()
		for id, mine := range ours {
			held, ok := theirs[id]
			if ok && (held.Checksum == mine.Checksum || !mine.Newer(held)) {
				continue
			}
			cp, err := store.LoadLocal(home, id)
			if err != nil || cp == nil {
				continue
			}
			if err := r.push(ctx, target.url, *cp); err != nil {
				r.logger.Warn("anti-entropy push failed", "peer", target.name, "job", id, "err", err)
				continue
			}
			repairs++
			r.cfg.Journal.Record(ctx, journal.AntiEntropyRepair, target.name, "pushed job "+id)
		}
		for id, held := range theirs {
			mine, ok := ours[id]
			if ok && (mine.Checksum == held.Checksum || !held.Newer(mine)) {
				continue
			}
			cp, err := r.fetch(ctx, target.url, id)
			if err == nil {
				err = store.Put(cp)
			}
			if err != nil {
				r.logger.Warn("anti-entropy pull failed", "peer", target.name, "job", id, "err", err)
				continue
			}
			repairs++
			r.cfg.Journal.Record(ctx, journal.AntiEntropyRepair, target.name, "pulled job "+id)
		}
	}
	return repairs
}
