package cluster

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"linesearch/internal/faultpoint"
	"linesearch/internal/service"
	"linesearch/internal/sweep"
	"linesearch/internal/telemetry/journal"
)

// eventsDumpDirEnv names the directory a failed test dumps each node's
// /debug/events JSON into. The chaos CI jobs set it and upload the
// directory as an artifact, so a red partition run ships the journals
// needed for the postmortem.
const eventsDumpDirEnv = "LINESEARCH_EVENTS_DUMP_DIR"

// dumpEvents writes n's event journal — rendered through the same
// handler that serves /debug/events, so the artifact matches what an
// operator would have curled — into dir.
func dumpEvents(t *testing.T, dir string, n *replicaNode) {
	rec := httptest.NewRecorder()
	journal.Handler(n.jrnl)(rec, httptest.NewRequest(http.MethodGet, "/debug/events", nil))
	host := strings.TrimPrefix(n.srv.URL, "http://")
	name := strings.NewReplacer("/", "_", ":", "-").Replace(t.Name()+"-"+host) + ".json"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("events dump: %v", err)
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
		t.Logf("events dump: %v", err)
		return
	}
	t.Logf("events journal dumped to %s", path)
}

// replicaNode is one backend with a replica store and a replicator:
// the full replication triangle in-process.
type replicaNode struct {
	svc   *service.Service
	srv   *httptest.Server
	store *sweep.ReplicaStore
	mgr   *sweep.Manager
	rep   *Replicator
	jrnl  *journal.Journal
}

func (n *replicaNode) close() {
	n.srv.Close()
	n.svc.Close()
}

// newReplicaNode builds a backend whose sweep manager streams every
// checkpoint through a Replicator, exactly as linesearchd wires it.
// Optional tweaks adjust the sweep config (the chaos suite slows
// evaluation and checkpoints every cell so a kill lands mid-flight).
func newReplicaNode(t *testing.T, tweaks ...func(*sweep.Config)) *replicaNode {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	n := &replicaNode{}
	n.store = sweep.NewReplicaStore(t.TempDir(), logger)
	home := t.TempDir()
	sweepCfg := sweep.Config{
		Dir:        home,
		Workers:    1,
		Logger:     logger,
		ReplicaDir: n.store.Dir(),
		OnCheckpoint: func(cp sweep.Checkpoint) {
			if n.rep != nil {
				n.rep.Replicate(context.Background(), cp)
			}
		},
	}
	for _, tweak := range tweaks {
		tweak(&sweepCfg)
	}
	n.jrnl = journal.New(0)
	if dir := os.Getenv(eventsDumpDirEnv); dir != "" {
		t.Cleanup(func() {
			if t.Failed() {
				dumpEvents(t, dir, n)
			}
		})
	}
	n.mgr = sweep.NewManager(sweepCfg)
	n.svc = service.New(service.Config{Logger: logger, Sweeps: n.mgr, Replicas: n.store, Journal: n.jrnl})
	n.srv = httptest.NewServer(n.svc.Handler())
	rep, err := NewReplicator(ReplicatorConfig{
		Self:    n.srv.URL,
		Logger:  logger,
		Journal: n.jrnl,
		HomeDir: home,
		Store:   n.store,
	})
	if err != nil {
		t.Fatalf("NewReplicator: %v", err)
	}
	n.rep = rep
	return n
}

// runSweep submits a small sweep on node and waits for it.
func runSweep(t *testing.T, n *replicaNode) string {
	t.Helper()
	j, err := n.mgr.Submit(sweep.Spec{N: []int{3}, F: []int{1}, XMax: 8})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-j.Done()
	if st := j.Status(); st.State != sweep.StateDone {
		t.Fatalf("sweep finished %s: %+v", st.State, st)
	}
	return j.ID()
}

func TestReplicatorStreamsToOwner(t *testing.T) {
	a, b := newReplicaNode(t), newReplicaNode(t)
	defer a.close()
	defer b.close()
	members := []string{a.srv.URL, b.srv.URL}
	a.rep.SetMembers(members)
	b.rep.SetMembers(members)

	id := runSweep(t, a)

	// b's replica store must now hold a's terminal checkpoint with a's
	// checksum, byte for byte.
	got, err := b.store.Get(id)
	if err != nil || got == nil {
		t.Fatalf("replica missing on peer: %v, %v", got, err)
	}
	home, lerr := sweep.LoadCheckpoint(a.mgr.Dir(), id)
	if lerr != nil || home == nil {
		t.Fatalf("home checkpoint: %v, %v", home, lerr)
	}
	if got.Checksum != home.Checksum {
		t.Fatalf("replica checksum %s != home %s", got.Checksum, home.Checksum)
	}
	if st := b.store.Stats(); st.Accepted == 0 {
		t.Fatalf("peer accepted no pushes: %+v", st)
	}
}

// repairEvents returns the jobs named by n's anti_entropy_repair
// events, as their journal details ("pushed job <id>", "pulled job
// <id>").
func repairEvents(t *testing.T, n *replicaNode) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for _, e := range nodeEvents(t, n, "anti_entropy_repair") {
		out[e.Detail] = true
	}
	return out
}

// TestReplicatorMissedPushRepaired downs the peer during the sweep,
// then heals it: a failed push is only logged, and the next
// anti-entropy pass pushes the home checkpoint from disk, converges to
// the home checksum and journals the repair; a second pass finds
// nothing left to do.
func TestReplicatorMissedPushRepaired(t *testing.T) {
	defer faultpoint.Reset()
	a, b := newReplicaNode(t), newReplicaNode(t)
	defer a.close()
	defer b.close()
	members := []string{a.srv.URL, b.srv.URL}
	a.rep.SetMembers(members)
	b.rep.SetMembers(members)

	bName, _ := memberName(b.srv.URL)
	faultpoint.Arm(fpReplicate+"."+bName, faultpoint.Rule{})
	id := runSweep(t, a)

	if got, _ := b.store.Get(id); got != nil {
		t.Fatal("checkpoint reached the downed peer")
	}

	faultpoint.Reset()
	if rep := a.rep.AntiEntropy(context.Background()); rep != 1 {
		t.Fatalf("anti-entropy made %d repairs, want 1 push", rep)
	}
	got, err := b.store.Get(id)
	if err != nil || got == nil {
		t.Fatalf("replica still missing after heal: %v, %v", got, err)
	}
	home, _ := sweep.LoadCheckpoint(a.mgr.Dir(), id)
	if home == nil || got.Checksum != home.Checksum {
		t.Fatalf("replica did not converge to the home checksum")
	}
	if !repairEvents(t, a)["pushed job "+id] {
		t.Fatalf("no anti_entropy_repair event names job %s", id)
	}
	if rep := a.rep.AntiEntropy(context.Background()); rep != 0 {
		t.Fatalf("second anti-entropy pass made %d repairs, want 0", rep)
	}
}

// captureFirst checkpoints every cell and records the job's first
// checkpoint (one cell) in *first, so a test can hold an older copy of
// a job next to its finished one.
func captureFirst(first *sweep.Checkpoint) func(*sweep.Config) {
	return func(c *sweep.Config) {
		c.CheckpointEvery = 1
		next := c.OnCheckpoint
		c.OnCheckpoint = func(cp sweep.Checkpoint) {
			if first.ID == "" {
				*first = cp
			}
			next(cp)
		}
	}
}

// multiCellSpec has three cells, so its first checkpoint is strictly
// older than its last.
var multiCellSpec = sweep.Spec{N: []int{2, 3, 4}, F: []int{1}, XMax: 8}

// TestReplicatorPullsNewerHomeOverOlderReplica: b holds a job's
// finished home checkpoint and an older replica of it. b's digest
// reports the home copy, so a's pull must land the home checksum — the
// replica endpoint serves the copy the digest names.
func TestReplicatorPullsNewerHomeOverOlderReplica(t *testing.T) {
	var first sweep.Checkpoint
	a, b := newReplicaNode(t), newReplicaNode(t, captureFirst(&first))
	defer a.close()
	defer b.close()
	id := submitSpec(t, b, multiCellSpec) // b knows no peers: nothing pushed
	home, err := sweep.LoadCheckpoint(b.mgr.Dir(), id)
	if err != nil || home == nil || len(first.Cells) >= len(home.Cells) {
		t.Fatalf("setup: home %v (%v), first checkpoint %d cells", home, err, len(first.Cells))
	}
	if err := b.store.Put(first); err != nil {
		t.Fatalf("replica put: %v", err)
	}

	a.rep.SetMembers([]string{a.srv.URL, b.srv.URL})
	if rep := a.rep.AntiEntropy(context.Background()); rep != 1 {
		t.Fatalf("anti-entropy made %d repairs, want 1 pull", rep)
	}
	got, err := a.store.Get(id)
	if err != nil || got == nil {
		t.Fatalf("pull repair did not land: %v, %v", got, err)
	}
	if got.Checksum != home.Checksum {
		t.Fatalf("pulled %d cells (checksum %s), want the home's %d (%s)",
			len(got.Cells), got.Checksum, len(home.Cells), home.Checksum)
	}
	if rep := a.rep.AntiEntropy(context.Background()); rep != 0 {
		t.Fatalf("second anti-entropy pass made %d repairs, want 0", rep)
	}
}

// TestReplicatorPushesNewerReplicaOverOlderHome: a holds an older home
// checkpoint of a job and a newer replica of it. Its digest reports the
// replica, so the push to a peer that lacks the job must carry the
// replica's checksum.
func TestReplicatorPushesNewerReplicaOverOlderHome(t *testing.T) {
	var first sweep.Checkpoint
	src := newReplicaNode(t, captureFirst(&first))
	defer src.close()
	id := submitSpec(t, src, multiCellSpec)
	last, err := sweep.LoadCheckpoint(src.mgr.Dir(), id)
	if err != nil || last == nil || len(first.Cells) >= len(last.Cells) {
		t.Fatalf("setup: last %v (%v), first checkpoint %d cells", last, err, len(first.Cells))
	}

	a, b := newReplicaNode(t), newReplicaNode(t)
	defer a.close()
	defer b.close()
	// A replica store writes the home checkpoint format, so one opened
	// on a's home directory plants the older home copy there.
	if err := sweep.NewReplicaStore(a.mgr.Dir(), nil).Put(first); err != nil {
		t.Fatalf("plant home copy: %v", err)
	}
	if err := a.store.Put(*last); err != nil {
		t.Fatalf("replica put: %v", err)
	}

	a.rep.SetMembers([]string{a.srv.URL, b.srv.URL})
	if rep := a.rep.AntiEntropy(context.Background()); rep != 1 {
		t.Fatalf("anti-entropy made %d repairs, want 1 push", rep)
	}
	got, err := b.store.Get(id)
	if err != nil || got == nil {
		t.Fatalf("push repair did not land: %v, %v", got, err)
	}
	if got.Checksum != last.Checksum {
		t.Fatalf("pushed %d cells (checksum %s), want the replica's %d (%s)",
			len(got.Cells), got.Checksum, len(last.Cells), last.Checksum)
	}
}

// TestReplicatorAntiEntropyPulls makes the peer strictly ahead (it ran
// the sweep; we hold nothing) and requires the local side to pull the
// checkpoint during its own anti-entropy pass.
func TestReplicatorAntiEntropyPulls(t *testing.T) {
	a, b := newReplicaNode(t), newReplicaNode(t)
	defer a.close()
	defer b.close()
	members := []string{a.srv.URL, b.srv.URL}
	// Only b's replicator knows the fleet; a never saw the checkpoint.
	b.rep.SetMembers(members)
	faultpoint.Arm(fpReplicate, faultpoint.Rule{})
	id := runSweep(t, b)
	faultpoint.Reset()

	a.rep.SetMembers(members)
	if got, _ := a.store.Get(id); got != nil {
		t.Fatal("test setup leaked the checkpoint to a")
	}
	if repairs := a.rep.AntiEntropy(context.Background()); repairs == 0 {
		t.Fatal("anti-entropy found nothing to pull")
	}
	got, err := a.store.Get(id)
	if err != nil || got == nil {
		t.Fatalf("pull repair did not land: %v, %v", got, err)
	}
	home, _ := sweep.LoadCheckpoint(b.mgr.Dir(), id)
	if home == nil || got.Checksum != home.Checksum {
		t.Fatal("pulled replica does not match the peer's home checksum")
	}
}

func TestReplicatorValidation(t *testing.T) {
	store := sweep.NewReplicaStore(t.TempDir(), nil)
	home := t.TempDir()
	if _, err := NewReplicator(ReplicatorConfig{HomeDir: home, Store: store}); err == nil {
		t.Fatal("NewReplicator accepted an empty Self")
	}
	if _, err := NewReplicator(ReplicatorConfig{Self: "http://ok:1", HomeDir: home}); err == nil {
		t.Fatal("NewReplicator accepted a missing Store")
	}
	if _, err := NewReplicator(ReplicatorConfig{Self: "http://ok:1", Store: store}); err == nil {
		t.Fatal("NewReplicator accepted a missing HomeDir")
	}
	if _, err := NewReplicator(ReplicatorConfig{Self: "not a url", HomeDir: home, Store: store}); err == nil {
		t.Fatal("NewReplicator accepted a bad Self URL")
	}
}
