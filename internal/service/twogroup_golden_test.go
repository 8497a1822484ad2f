package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestTwoGroupResponseGolden pins the exact response bodies of a
// two-group plan (n=8, f=3: two groups of four robots, one ray
// direction each) on the plan, batch and timeline endpoints. Kernel
// changes must leave these bytes untouched; regenerate with -update
// only for an intended wire change, and review the diff.
func TestTwoGroupResponseGolden(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	for _, tc := range []struct{ file, target string }{
		{"twogroup_plan.json", "/v1/plan?n=8&f=3"},
		{"twogroup_searchtimes.json", "/v1/searchtimes?n=8&f=3&xs=1,-1,2.5,-7.75,1000,-123456.5,1e9,3.25"},
		{"twogroup_timeline.json", "/v1/timeline?n=8&f=3&x=-3.5"},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", tc.target, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.target, w.Code, w.Body.String())
		}
		path := filepath.Join("testdata", tc.file)
		if *updateGolden {
			if err := os.WriteFile(path, w.Body.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("%s body differs from %s:\n got  %s\n want %s", tc.target, path, w.Body.Bytes(), want)
		}
	}
}
