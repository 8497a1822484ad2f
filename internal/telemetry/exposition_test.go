package telemetry

import (
	"errors"
	"strings"
	"testing"
)

func TestExpositionEscapesLabels(t *testing.T) {
	var b strings.Builder
	p := NewExposition(&b)
	p.Int("m", 1, "k", "a\\b\"c\nd")
	if want := "m{k=\"a\\\\b\\\"c\\nd\"} 1\n"; b.String() != want {
		t.Errorf("got %q, want %q", b.String(), want)
	}
}

type failWriter struct{ writes int }

func (f *failWriter) Write([]byte) (int, error) {
	f.writes++
	return 0, errors.New("gone")
}

// The first write error sticks and stops further writes.
func TestExpositionStickyError(t *testing.T) {
	w := &failWriter{}
	p := NewExposition(w)
	p.Counter("a_total", "A.", 1)
	p.Histogram("h", NewHistogram().Snapshot())
	if p.Err() == nil || w.writes != 1 {
		t.Errorf("err %v after %d writes, want an error after exactly 1", p.Err(), w.writes)
	}
}
