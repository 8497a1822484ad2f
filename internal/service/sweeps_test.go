package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linesearch/internal/sweep"
)

// newSweepServer starts a test server whose sweep manager writes under
// dir; cfg tweaks beyond that ride on the manager.
func newSweepServer(t *testing.T, mcfg sweep.Config) (*httptest.Server, *Service) {
	t.Helper()
	if mcfg.Logger == nil {
		mcfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	svc := New(Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Sweeps: sweep.NewManager(mcfg),
	})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, svc
}

// postSweep submits a spec and decodes the accepted status.
func postSweep(t *testing.T, srv *httptest.Server, spec any) SweepSubmitResponse {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d: %s", resp.StatusCode, body)
	}
	var out SweepSubmitResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode submit response: %v\n%s", err, body)
	}
	return out
}

// getStatus fetches one job's status.
func getStatus(t *testing.T, srv *httptest.Server, id string) sweep.Status {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /v1/sweeps/%s = %d: %s", id, resp.StatusCode, body)
	}
	var st sweep.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// pollUntilTerminal polls the status endpoint, asserting monotone
// progress, until the job finishes.
func pollUntilTerminal(t *testing.T, srv *httptest.Server, id string) sweep.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	prev := -1
	for {
		st := getStatus(t, srv, id)
		if st.DoneCells < prev {
			t.Fatalf("progress went backwards: %d -> %d", prev, st.DoneCells)
		}
		prev = st.DoneCells
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// acceptanceSpec is a 200-cell grid: 10 robot counts x 5 fault budgets
// x 4 strategies, spanning all three regimes.
func acceptanceSpec() sweep.Spec {
	return sweep.Spec{
		Name:       "acceptance",
		N:          []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		F:          []int{1, 2, 3, 4, 5},
		Strategies: []string{sweep.StrategyAuto, "doubling"},
		Betas:      []float64{2.5, 4},
		XMax:       50,
		GridPoints: 8,
	}
}

// TestSweepAPI200CellGrid is the subsystem's acceptance test: a
// ≥200-cell (n, f, beta) grid submitted over HTTP completes in the
// background, reports monotonically increasing progress, and every cell
// where both the empirical and closed-form CR are defined agrees to
// 1e-9.
func TestSweepAPI200CellGrid(t *testing.T) {
	srv, svc := newSweepServer(t, sweep.Config{Dir: t.TempDir()})
	sub := postSweep(t, srv, acceptanceSpec())
	if sub.TotalCells < 200 {
		t.Fatalf("grid has %d cells, want >= 200", sub.TotalCells)
	}
	if sub.Resumed {
		t.Error("cold submission reported resumed=true")
	}

	st := pollUntilTerminal(t, srv, sub.ID)
	if st.State != sweep.StateDone {
		t.Fatalf("state %s, error %q", st.State, st.Error)
	}
	if st.DoneCells != st.TotalCells {
		t.Fatalf("done %d / %d", st.DoneCells, st.TotalCells)
	}

	// Fetch the result and check closed-form agreement per row.
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("result = %d: %s", resp.StatusCode, body)
	}
	var res struct {
		ID         string   `json:"id"`
		Strategies []string `json:"strategies"`
		Dataset    struct {
			Columns []string     `json:"columns"`
			Rows    [][]*float64 `json:"rows"`
		} `json:"dataset"`
		CellErrors []sweep.Cell `json:"cell_errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies) != 4 {
		t.Errorf("strategy legend = %v", res.Strategies)
	}
	col := make(map[string]int, len(res.Dataset.Columns))
	for i, c := range res.Dataset.Columns {
		col[c] = i
	}
	checked := 0
	for _, row := range res.Dataset.Rows {
		emp, ana := row[col["empirical_cr"]], row[col["analytic_cr"]]
		if emp == nil || ana == nil {
			continue
		}
		absErr := row[col["abs_error"]]
		if absErr == nil || *absErr > 1e-9 {
			t.Errorf("row n=%v f=%v strategy_id=%v: empirical %v vs analytic %v",
				*row[col["n"]], *row[col["f"]], *row[col["strategy_id"]], *emp, *ana)
		}
		checked++
	}
	if checked < 100 {
		t.Errorf("only %d rows had both empirical and closed-form CR", checked)
	}
	if len(res.Dataset.Rows)+len(res.CellErrors) != st.TotalCells {
		t.Errorf("%d rows + %d cell errors != %d cells",
			len(res.Dataset.Rows), len(res.CellErrors), st.TotalCells)
	}

	// The job engine counted the run.
	ms := svc.Sweeps().Stats()
	if ms.Completed != 1 || ms.Submitted != 1 {
		t.Errorf("sweep metrics = %+v", ms)
	}
	if ms.CellsComputed != int64(st.TotalCells) {
		t.Errorf("cells_computed = %d, want %d", ms.CellsComputed, st.TotalCells)
	}
}

// TestSweepAPIRestartResumes simulates a daemon restart around a
// cancelled job: a second service over the same directory resumes the
// checkpoint instead of recomputing.
func TestSweepAPIRestartResumes(t *testing.T) {
	dir := t.TempDir()
	spec := sweep.Spec{
		Name: "restart", N: []int{2, 3, 4, 5, 6, 7}, F: []int{1, 2, 3},
		XMax: 50, GridPoints: 8,
	}

	// First daemon: the evaluator lets a handful of cells through, then
	// stalls until cancellation, so the DELETE below always lands on a
	// partially complete job.
	computed1 := make(chan int, 1024)
	started := make(chan struct{})
	var once sync.Once
	var evaluated atomic.Int64
	srv1, svc1 := newSweepServer(t, sweep.Config{
		Dir: dir, Workers: 2, CheckpointEvery: 1,
		Eval: func(ctx context.Context, p sweep.CellParams) sweep.Cell {
			if evaluated.Add(1) > 5 {
				once.Do(func() { close(started) })
				<-ctx.Done()
			}
			c := sweep.EvalCell(context.Background(), p)
			computed1 <- p.Index
			return c
		},
	})
	sub := postSweep(t, srv1, spec)
	<-started
	req, err := http.NewRequest(http.MethodDelete, srv1.URL+"/v1/sweeps/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", dresp.StatusCode)
	}
	st1 := pollUntilTerminal(t, srv1, sub.ID)
	if st1.State != sweep.StateCancelled {
		t.Fatalf("state after DELETE = %s", st1.State)
	}
	srv1.Close()
	svc1.Close()
	first := make(map[int]bool)
	close(computed1)
	for idx := range computed1 {
		first[idx] = true
	}
	if len(first) == 0 || len(first) >= st1.TotalCells {
		t.Fatalf("first run computed %d of %d cells; need a partial run", len(first), st1.TotalCells)
	}

	// Second daemon over the same directory: resubmit and finish.
	var mu sync.Mutex
	second := make(map[int]bool)
	srv2, _ := newSweepServer(t, sweep.Config{
		Dir: dir, Workers: 2,
		Eval: func(ctx context.Context, p sweep.CellParams) sweep.Cell {
			mu.Lock()
			second[p.Index] = true
			mu.Unlock()
			return sweep.EvalCell(ctx, p)
		},
	})
	sub2 := postSweep(t, srv2, spec)
	if !sub2.Resumed || sub2.ResumedCells == 0 {
		t.Errorf("restart submission not resumed: %+v", sub2)
	}
	st2 := pollUntilTerminal(t, srv2, sub2.ID)
	if st2.State != sweep.StateDone {
		t.Fatalf("state %s, error %q", st2.State, st2.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	for idx := range second {
		if first[idx] {
			t.Errorf("cell %d recomputed after restart", idx)
		}
	}
	if len(second)+st2.ResumedCells != st2.TotalCells {
		t.Errorf("%d computed + %d resumed != %d total", len(second), st2.ResumedCells, st2.TotalCells)
	}
}

func TestSweepAPIErrors(t *testing.T) {
	srv, _ := newSweepServer(t, sweep.Config{Dir: t.TempDir()})

	post := func(body string) (int, string) {
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := post(`{`); code != http.StatusBadRequest {
		t.Errorf("truncated body = %d: %s", code, body)
	}
	if code, body := post(`{"n": [3], "f": [1], "bogus": true}`); code != http.StatusBadRequest {
		t.Errorf("unknown field = %d: %s", code, body)
	}
	if code, body := post(`{"n": [3]}`); code != http.StatusBadRequest || !strings.Contains(body, "at least one f") {
		t.Errorf("missing f = %d: %s", code, body)
	}
	if code, body := post(`{"n": [3], "f": [1], "strategies": ["nope"]}`); code != http.StatusBadRequest || !strings.Contains(body, "unknown strategy") {
		t.Errorf("bad strategy = %d: %s", code, body)
	}

	for _, url := range []string{"/v1/sweeps/sw-missing", "/v1/sweeps/sw-missing/result"} {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", url, resp.StatusCode)
		}
	}

	// Result of an unfinished job is a 409.
	gate := make(chan struct{})
	srvSlow, _ := newSweepServer(t, sweep.Config{
		Dir: t.TempDir(),
		Eval: func(ctx context.Context, p sweep.CellParams) sweep.Cell {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return sweep.EvalCell(context.Background(), p)
		},
	})
	sub := postSweep(t, srvSlow, sweep.Spec{N: []int{3}, F: []int{1}, XMax: 20})
	resp, err := http.Get(srvSlow.URL + "/v1/sweeps/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of running job = %d: %s", resp.StatusCode, body)
	}
	close(gate)
	pollUntilTerminal(t, srvSlow, sub.ID)
}

func TestSweepAPIList(t *testing.T) {
	srv, _ := newSweepServer(t, sweep.Config{Dir: t.TempDir()})
	ids := []string{
		postSweep(t, srv, sweep.Spec{N: []int{3}, F: []int{1}, XMax: 20}).ID,
		postSweep(t, srv, sweep.Spec{N: []int{5}, F: []int{2}, XMax: 20}).ID,
	}
	resp, err := http.Get(srv.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list SweepListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 2 {
		t.Fatalf("list has %d sweeps, want 2", len(list.Sweeps))
	}
	for i, st := range list.Sweeps {
		if st.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, st.ID, ids[i])
		}
	}
	for _, id := range ids {
		pollUntilTerminal(t, srv, id)
	}
}

// TestSweepSubmitIdempotentOverHTTP: resubmitting the same spec returns
// the same job ID rather than spawning a duplicate.
func TestSweepSubmitIdempotentOverHTTP(t *testing.T) {
	srv, svc := newSweepServer(t, sweep.Config{Dir: t.TempDir()})
	spec := sweep.Spec{N: []int{3}, F: []int{1}, XMax: 20}
	a := postSweep(t, srv, spec)
	b := postSweep(t, srv, sweep.Spec{N: []int{3}, F: []int{1}, XMax: 20})
	if a.ID != b.ID {
		t.Errorf("idempotent resubmit created %s and %s", a.ID, b.ID)
	}
	if got := len(svc.Sweeps().List()); got != 1 {
		t.Errorf("manager has %d jobs, want 1", got)
	}
	pollUntilTerminal(t, srv, a.ID)
}
