package service

import (
	"encoding/json"
	"net/http"
	"regexp"

	"linesearch/internal/sweep"
)

// Replica endpoints: the wire surface of sweep-checkpoint replication.
// A home backend PUTs every fsynced checkpoint to the next f ring
// owners; anti-entropy GETs digests to find divergence and GETs the
// winning checkpoint to repair it. All three are internal fleet
// traffic, admitted under the cache class so a replication storm
// cannot starve the serving path.

// maxReplicaBody bounds one replicated checkpoint payload. Checkpoints
// hold one JSON cell per completed grid cell; 16 MiB matches the cache
// snapshot bound and is orders of magnitude above a real sweep.
const maxReplicaBody = 16 << 20

// jobIDPattern matches sweep job IDs ("sw-" plus a hash prefix). The
// ID names a file on disk, so anything outside this alphabet — path
// separators, dots — is rejected before it reaches a filesystem call.
var jobIDPattern = regexp.MustCompile(`^[A-Za-z0-9_-]{1,128}$`)

// replicasEnabled guards the replica surface: a daemon started without
// a replica store answers 503 so a misconfigured fleet fails loudly
// instead of silently dropping replicated checkpoints.
func (s *Service) replicasEnabled(w http.ResponseWriter) bool {
	if s.cfg.Replicas == nil {
		s.writeError(w, http.StatusServiceUnavailable, "replication is not enabled on this backend")
		return false
	}
	return true
}

// handleReplicaPut stores a checkpoint replicated from another owner.
// The body must verify (version and checksum) and match the path ID;
// stale pushes are acknowledged without storing so replays converge.
func (s *Service) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	if !s.replicasEnabled(w) {
		return
	}
	id := r.PathValue("id")
	if !jobIDPattern.MatchString(id) {
		s.writeError(w, http.StatusBadRequest, "invalid job id")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	var cp sweep.Checkpoint
	if err := dec.Decode(&cp); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid checkpoint body: "+err.Error())
		return
	}
	if cp.ID != id {
		s.writeError(w, http.StatusBadRequest, "checkpoint id "+cp.ID+" does not match path id "+id)
		return
	}
	if err := s.cfg.Replicas.Put(cp); err != nil {
		s.writeError(w, http.StatusBadRequest, "checkpoint rejected: "+err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, s.cfg.Replicas.Stats())
}

// handleReplicaGet serves a checkpoint for anti-entropy repair: the
// newer of this backend's home and replica copies, the home on a tie —
// the copy its digest reports (sweep.ReplicaStore.LoadLocal), so a
// repairing peer lands exactly what it compared against.
func (s *Service) handleReplicaGet(w http.ResponseWriter, r *http.Request) {
	if !s.replicasEnabled(w) {
		return
	}
	id := r.PathValue("id")
	if !jobIDPattern.MatchString(id) {
		s.writeError(w, http.StatusBadRequest, "invalid job id")
		return
	}
	cp, err := s.cfg.Replicas.LoadLocal(s.sweeps.Dir(), id)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "checkpoint read failed: "+err.Error())
		return
	}
	if cp == nil {
		s.writeError(w, http.StatusNotFound, "no checkpoint for job "+id)
		return
	}
	s.writeJSON(w, http.StatusOK, cp)
}

// handleReplicaDigest summarizes every checkpoint this backend holds,
// split into home and replica (sweep.Digest), for anti-entropy
// comparison.
func (s *Service) handleReplicaDigest(w http.ResponseWriter, r *http.Request) {
	if !s.replicasEnabled(w) {
		return
	}
	s.writeJSON(w, http.StatusOK, s.cfg.Replicas.Local(s.sweeps.Dir()))
}
