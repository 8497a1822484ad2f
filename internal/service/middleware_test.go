package service

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// flushRecorder counts Flush calls behind the middleware.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// The middleware's statusRecorder wraps every response writer; it must
// keep advertising Flusher (streaming handlers silently stop streaming
// otherwise) and forward Flush to the underlying writer.
func TestStatusRecorderPreservesFlusher(t *testing.T) {
	var sawFlusher bool
	h := newTestService(t, Config{}).instrument("/healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		sawFlusher = ok
		if ok {
			w.Write([]byte("chunk 1"))
			f.Flush()
			w.Write([]byte("chunk 2"))
			f.Flush()
		}
	}))
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if !sawFlusher {
		t.Fatal("handler behind middleware does not see http.Flusher")
	}
	if rec.flushes != 2 {
		t.Errorf("underlying writer saw %d flushes, want 2", rec.flushes)
	}
}

// A writer with no Flush support must not blow up when the handler
// flushes through the recorder, and the flush must imply a 200 like
// Write does.
func TestStatusRecorderFlushWithoutUnderlyingFlusher(t *testing.T) {
	type plainWriter struct{ http.ResponseWriter } // hides Flush from httptest.ResponseRecorder
	rec := &statusRecorder{ResponseWriter: plainWriter{httptest.NewRecorder()}}
	rec.Flush() // must not panic
	if rec.status != 0 {
		t.Errorf("no-op flush set status %d, want 0", rec.status)
	}
	under := httptest.NewRecorder()
	rec = &statusRecorder{ResponseWriter: under}
	rec.Flush()
	if rec.status != http.StatusOK {
		t.Errorf("flush-first status = %d, want 200", rec.status)
	}
	if !under.Flushed {
		t.Error("flush did not reach the underlying writer")
	}
}

// Probe and scrape endpoints log at Debug, everything else at Info: an
// Info-level logger sees /v1 traffic but not /healthz or /metrics.
func TestQuietEndpointsLogAtDebug(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	h := newTestService(t, Config{Logger: logger}).Handler()

	for _, target := range []string{"/healthz", "/metrics", "/v1/lowerbound?n=3&f=1"} {
		if w := doRaw(h, "GET", target); w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %s", target, w.Code, w.Body)
		}
	}
	logs := buf.String()
	if strings.Contains(logs, "endpoint=/healthz") || strings.Contains(logs, "endpoint=/metrics") {
		t.Errorf("quiet endpoints leaked into Info logs:\n%s", logs)
	}
	if !strings.Contains(logs, "endpoint=/v1/lowerbound") {
		t.Errorf("real traffic missing from Info logs:\n%s", logs)
	}

	buf.Reset()
	debugLogger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	h = newTestService(t, Config{Logger: debugLogger}).Handler()
	if code, _ := doReq(t, h, "GET", "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if !strings.Contains(buf.String(), "endpoint=/healthz") {
		t.Errorf("Debug logger dropped the healthz access log:\n%s", buf.String())
	}
}

// Sampled requests' access-log lines carry the trace ID — the incoming
// one when the client sent a traceparent header.
func TestAccessLogCarriesTraceID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := newTestService(t, Config{Logger: logger}).Handler()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	r := httptest.NewRequest("GET", "/v1/lowerbound?n=3&f=1", nil)
	r.Header.Set("Traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(buf.String(), "trace_id="+traceID) {
		t.Errorf("access log missing adopted trace_id %s:\n%s", traceID, buf.String())
	}
}
