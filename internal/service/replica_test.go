package service

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"linesearch/internal/sweep"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// replicaCheckpoint builds a stamped, verifiable checkpoint by running
// a tiny sweep with the replication hook attached — the same bytes a
// home backend would stream to its replica owners.
func replicaCheckpoint(t *testing.T) sweep.Checkpoint {
	t.Helper()
	var got *sweep.Checkpoint
	var mu sync.Mutex
	mgr := sweep.NewManager(sweep.Config{
		Dir:     t.TempDir(),
		Workers: 1,
		Logger:  quietLog(),
		OnCheckpoint: func(cp sweep.Checkpoint) {
			mu.Lock()
			got = &cp
			mu.Unlock()
		},
	})
	defer mgr.Close()
	j, err := mgr.Submit(sweep.Spec{N: []int{3}, F: []int{1}, XMax: 8})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-j.Done()
	mu.Lock()
	defer mu.Unlock()
	if got == nil {
		t.Fatal("no checkpoint was produced")
	}
	return *got
}

func TestReplicaEndpointsRoundTrip(t *testing.T) {
	store := sweep.NewReplicaStore(t.TempDir(), quietLog())
	svc := newTestService(t, Config{Replicas: store})
	defer svc.Close()
	h := svc.Handler()

	cp := replicaCheckpoint(t)
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	code, _ := doReq(t, h, "PUT", "/v1/replica/checkpoints/"+cp.ID, string(blob))
	if code != 200 {
		t.Fatalf("PUT = %d, want 200", code)
	}

	code, body := doReq(t, h, "GET", "/v1/replica/checkpoints/"+cp.ID, "")
	if code != 200 {
		t.Fatalf("GET = %d, want 200", code)
	}
	if body["checksum"] != cp.Checksum {
		t.Fatalf("GET returned checksum %v, want %s", body["checksum"], cp.Checksum)
	}

	code, digest := doReq(t, h, "GET", "/v1/replica/digest", "")
	if code != 200 {
		t.Fatalf("digest = %d, want 200", code)
	}
	replica, ok := digest["replica"].(map[string]any)
	if !ok {
		t.Fatalf("digest has no replica map: %v", digest)
	}
	entry, ok := replica[cp.ID].(map[string]any)
	if !ok || entry["checksum"] != cp.Checksum {
		t.Fatalf("digest entry = %v, want checksum %s", replica[cp.ID], cp.Checksum)
	}
}

func TestReplicaEndpointsValidation(t *testing.T) {
	store := sweep.NewReplicaStore(t.TempDir(), quietLog())
	svc := newTestService(t, Config{Replicas: store})
	defer svc.Close()
	h := svc.Handler()

	// Path-traversal shaped IDs never reach the filesystem.
	r := httptest.NewRequest("GET", "/v1/replica/checkpoints/x", nil)
	r.SetPathValue("id", "../../etc/passwd")
	w := httptest.NewRecorder()
	svc.handleReplicaGet(w, r)
	if w.Code != 400 {
		t.Fatalf("traversal id = %d, want 400", w.Code)
	}

	// A body whose ID disagrees with the path is rejected.
	cp := replicaCheckpoint(t)
	blob, _ := json.Marshal(cp)
	if code, _ := doReq(t, h, "PUT", "/v1/replica/checkpoints/sw-other", string(blob)); code != 400 {
		t.Fatalf("mismatched id PUT = %d, want 400", code)
	}

	// A tampered checkpoint fails its checksum and is rejected.
	tampered := strings.Replace(string(blob), `"n":3`, `"n":4`, 1)
	if code, _ := doReq(t, h, "PUT", "/v1/replica/checkpoints/"+cp.ID, tampered); code != 400 {
		t.Fatalf("tampered PUT = %d, want 400", code)
	}

	// A body over maxReplicaBody is cut off at the bound and rejected:
	// one PUT reads at most maxReplicaBody bytes.
	huge := `{"id":"` + strings.Repeat("a", maxReplicaBody) + `"}`
	code, body := doReq(t, h, "PUT", "/v1/replica/checkpoints/"+cp.ID, huge)
	if msg, _ := body["error"].(string); code != 400 || !strings.Contains(msg, "too large") {
		t.Fatalf("oversized PUT = %d %q, want 400 naming the size bound", code, msg)
	}

	// Missing checkpoint is a 404.
	if code, _ := doReq(t, h, "GET", "/v1/replica/checkpoints/sw-missing00000", ""); code != 404 {
		t.Fatalf("missing GET = %d, want 404", code)
	}
}

func TestReplicaEndpointsDisabled(t *testing.T) {
	svc := newTestService(t, Config{})
	defer svc.Close()
	h := svc.Handler()
	for _, target := range []string{"/v1/replica/checkpoints/sw-x", "/v1/replica/digest"} {
		if code, _ := doReq(t, h, "GET", target, ""); code != 503 {
			t.Fatalf("GET %s without a store = %d, want 503", target, code)
		}
	}
}

// TestReplicaGetFallsBackToHome proves a job's owner serves its
// authoritative home checkpoint through the replica surface, so a
// repairing peer need not know which role produced the copy.
func TestReplicaGetFallsBackToHome(t *testing.T) {
	dir := t.TempDir()
	mgr := sweep.NewManager(sweep.Config{Dir: dir, Workers: 1, Logger: quietLog()})
	svc := newTestService(t, Config{
		Sweeps:   mgr,
		Replicas: sweep.NewReplicaStore(t.TempDir(), quietLog()),
	})
	defer svc.Close()
	j, err := mgr.Submit(sweep.Spec{N: []int{3}, F: []int{1}, XMax: 8})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-j.Done()

	code, body := doReq(t, svc.Handler(), "GET", "/v1/replica/checkpoints/"+j.ID(), "")
	if code != 200 {
		t.Fatalf("GET home checkpoint = %d, want 200", code)
	}
	if body["id"] != j.ID() {
		t.Fatalf("GET returned job %v, want %s", body["id"], j.ID())
	}
}
