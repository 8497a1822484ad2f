package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
)

// ReplicaStore holds sweep checkpoints replicated from other fleet
// members: the serving-layer analogue of the paper's f+1 rule. Every
// checkpoint the home backend fsyncs is streamed to the next f ring
// owners, so losing any f backends loses no completed cell — a new
// home recovers the job from its replica and resumes.
//
// Files live under their own directory in the home checkpoint format,
// byte-compatible with the writer's output and carrying the *home's*
// checksum (the store never re-stamps), so anti-entropy can compare
// owners by checksum alone. Safe for concurrent use.
type ReplicaStore struct {
	dir    string
	logger *slog.Logger

	mu    sync.Mutex
	index map[string]CheckpointInfo

	accepted atomic.Int64
	stale    atomic.Int64
	rejected atomic.Int64
}

// ReplicaStats are the store's counters, returned as the body of an
// accepted PUT /v1/replica/checkpoints/{id}.
type ReplicaStats struct {
	// Held is the number of replica checkpoints currently stored.
	Held int `json:"held"`
	// Accepted counts stored puts; Stale counts puts ignored because
	// the store already held the same or a newer checkpoint; Rejected
	// counts puts that failed verification.
	Accepted int64 `json:"accepted"`
	Stale    int64 `json:"stale"`
	Rejected int64 `json:"rejected"`
}

// NewReplicaStore opens (and indexes) the store at dir. Corrupt files
// are skipped at startup exactly as ScanCheckpoints skips them:
// anti-entropy re-fetches anything unreadable.
func NewReplicaStore(dir string, logger *slog.Logger) *ReplicaStore {
	if logger == nil {
		logger = slog.Default()
	}
	return &ReplicaStore{dir: dir, logger: logger, index: ScanCheckpoints(dir)}
}

// Dir returns the store's directory.
func (s *ReplicaStore) Dir() string { return s.dir }

// Put stores a replicated checkpoint. The checkpoint must verify
// (version and checksum); stale pushes — same or fewer cells than the
// held copy, and not a newer write — are ignored so out-of-order
// delivery and anti-entropy replays converge instead of fighting.
// Accepted checkpoints are written atomically and durably with the
// sender's checksum preserved.
func (s *ReplicaStore) Put(cp Checkpoint) error {
	if err := cp.Verify(); err != nil {
		s.rejected.Add(1)
		return err
	}
	if cp.ID == "" {
		s.rejected.Add(1)
		return errors.New("sweep: replica checkpoint has no job id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if held, ok := s.index[cp.ID]; ok {
		if held.Checksum == cp.Checksum || !cp.info().Newer(held) {
			s.stale.Add(1)
			return nil
		}
	}
	blob, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return fmt.Errorf("sweep: marshal replica checkpoint: %w", err)
	}
	if err := writeFileDurable(s.dir, cp.ID, checkpointPath(s.dir, cp.ID), append(blob, '\n')); err != nil {
		return err
	}
	s.index[cp.ID] = cp.info()
	s.accepted.Add(1)
	return nil
}

// Get loads and verifies the replica checkpoint for id; a missing
// replica is (nil, nil).
func (s *ReplicaStore) Get(id string) (*Checkpoint, error) {
	return LoadCheckpoint(s.dir, id)
}

// Digest summarizes every held replica, keyed by job ID — one side of
// an anti-entropy comparison.
func (s *ReplicaStore) Digest() map[string]CheckpointInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]CheckpointInfo, len(s.index))
	for id, info := range s.index {
		out[id] = info
	}
	return out
}

// Stats snapshots the store's counters.
func (s *ReplicaStore) Stats() ReplicaStats {
	s.mu.Lock()
	held := len(s.index)
	s.mu.Unlock()
	return ReplicaStats{
		Held:     held,
		Accepted: s.accepted.Load(),
		Stale:    s.stale.Load(),
		Rejected: s.rejected.Load(),
	}
}
