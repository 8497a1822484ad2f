package geom

import (
	"math"
	"testing"
	"testing/quick"

	"linesearch/internal/numeric"
)

func TestSegmentDurationDisplacementSpeed(t *testing.T) {
	s := Segment{From: Point{X: 1, T: 2}, To: Point{X: -2, T: 5}}
	if got := s.Duration(); got != 3 {
		t.Errorf("Duration = %v, want 3", got)
	}
	if got := s.Displacement(); got != -3 {
		t.Errorf("Displacement = %v, want -3", got)
	}
	if got := s.Speed(); got != 1 {
		t.Errorf("Speed = %v, want 1", got)
	}
}

func TestSegmentSpeedOfWait(t *testing.T) {
	s := Segment{From: Point{X: 4, T: 0}, To: Point{X: 4, T: 10}}
	if got := s.Speed(); got != 0 {
		t.Errorf("Speed = %v, want 0", got)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSegmentValidate(t *testing.T) {
	tests := []struct {
		name    string
		seg     Segment
		wantErr bool
	}{
		{"unit speed right", Segment{Point{0, 0}, Point{5, 5}}, false},
		{"unit speed left", Segment{Point{0, 0}, Point{-5, 5}}, false},
		{"slower than unit", Segment{Point{0, 0}, Point{2, 5}}, false},
		{"waiting", Segment{Point{3, 1}, Point{3, 9}}, false},
		{"instantaneous no move", Segment{Point{3, 1}, Point{3, 1}}, false},
		{"too fast", Segment{Point{0, 0}, Point{5, 3}}, true},
		{"teleport", Segment{Point{0, 0}, Point{5, 0}}, true},
		{"time reversal", Segment{Point{0, 5}, Point{1, 3}}, true},
		{"nan position", Segment{Point{math.NaN(), 0}, Point{1, 2}}, true},
		{"barely over unit speed absorbed", Segment{Point{0, 0}, Point{1 + 1e-12, 1}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.seg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSegmentPositionAt(t *testing.T) {
	s := Segment{From: Point{X: -1, T: 2}, To: Point{X: 3, T: 6}}
	tests := []struct {
		t, want float64
	}{
		{2, -1}, {6, 3}, {4, 1}, {3, 0},
	}
	for _, tt := range tests {
		got, err := s.PositionAt(tt.t)
		if err != nil {
			t.Fatalf("PositionAt(%v): %v", tt.t, err)
		}
		if !numeric.Close(got, tt.want) {
			t.Errorf("PositionAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if _, err := s.PositionAt(1.9); err == nil {
		t.Error("expected error before segment start")
	}
	if _, err := s.PositionAt(6.1); err == nil {
		t.Error("expected error after segment end")
	}
}

func TestSegmentPositionAtInstantaneous(t *testing.T) {
	s := Segment{From: Point{X: 7, T: 3}, To: Point{X: 7, T: 3}}
	got, err := s.PositionAt(3)
	if err != nil || got != 7 {
		t.Errorf("PositionAt(3) = %v, %v; want 7, nil", got, err)
	}
}

func TestSegmentVisitTimes(t *testing.T) {
	s := Segment{From: Point{X: 0, T: 0}, To: Point{X: 4, T: 4}}
	tests := []struct {
		x    float64
		want []float64
	}{
		{2, []float64{2}},
		{0, []float64{0}},
		{4, []float64{4}},
		{5, nil},
		{-0.5, nil},
	}
	for _, tt := range tests {
		got := s.VisitTimes(tt.x)
		if len(got) != len(tt.want) {
			t.Errorf("VisitTimes(%v) = %v, want %v", tt.x, got, tt.want)
			continue
		}
		for i := range got {
			if !numeric.Close(got[i], tt.want[i]) {
				t.Errorf("VisitTimes(%v) = %v, want %v", tt.x, got, tt.want)
			}
		}
	}
}

func TestSegmentVisitTimesStationary(t *testing.T) {
	s := Segment{From: Point{X: 2, T: 1}, To: Point{X: 2, T: 9}}
	if got := s.VisitTimes(2); len(got) != 1 || got[0] != 1 {
		t.Errorf("VisitTimes(2) = %v, want [1]", got)
	}
	if got := s.VisitTimes(3); got != nil {
		t.Errorf("VisitTimes(3) = %v, want nil", got)
	}
}

// TestSegmentVisitTimesUlpBeyondTurn pins the FuzzByzantineVote
// finding: a target one ulp beyond a segment's far end rounds to
// fraction 1, but the robot turns there and never stands on it, as the
// compiled kernel's exact envelope test already says.
func TestSegmentVisitTimesUlpBeyondTurn(t *testing.T) {
	s := Segment{From: Point{X: -3.2857142857142856, T: 9.857142857142858},
		To: Point{X: 6.571428571428571, T: 19.714285714285715}}
	beyond := math.Nextafter(s.To.X, math.Inf(1))
	if frac := (beyond - s.From.X) / s.Displacement(); frac != 1 {
		t.Fatalf("setup: fraction %v, want it to round to 1", frac)
	}
	if got := s.VisitTimes(beyond); got != nil {
		t.Errorf("VisitTimes(%v) = %v, want nil", beyond, got)
	}
	if got := s.VisitTimes(s.To.X); len(got) != 1 || got[0] != s.To.T {
		t.Errorf("VisitTimes(%v) = %v, want [%v]", s.To.X, got, s.To.T)
	}
}

func TestSegmentCovers(t *testing.T) {
	s := Segment{From: Point{X: 3, T: 0}, To: Point{X: -1, T: 4}}
	for _, x := range []float64{-1, 0, 1.5, 3} {
		if !s.Covers(x) {
			t.Errorf("Covers(%v) = false, want true", x)
		}
	}
	for _, x := range []float64{-1.01, 3.01, 100} {
		if s.Covers(x) {
			t.Errorf("Covers(%v) = true, want false", x)
		}
	}
}

func TestSegmentVisitWithinCoverProperty(t *testing.T) {
	f := func(x0, t0, dxRaw, dtRaw, q float64) bool {
		if math.IsNaN(x0) || math.IsNaN(t0) || math.IsNaN(dxRaw) || math.IsNaN(dtRaw) || math.IsNaN(q) {
			return true
		}
		x0 = math.Mod(x0, 100)
		t0 = math.Abs(math.Mod(t0, 100))
		dt := math.Abs(math.Mod(dtRaw, 50))
		dx := math.Mod(dxRaw, 2*dt+1e-9) // may exceed unit speed slightly; clamp
		dx = numeric.Clamp(dx, -dt, dt)
		s := Segment{From: Point{x0, t0}, To: Point{x0 + dx, t0 + dt}}
		// Pick a query position from the swept interval via q in [0,1].
		frac := math.Abs(math.Mod(q, 1))
		x := x0 + frac*dx
		vs := s.VisitTimes(x)
		if !s.Covers(x) {
			return len(vs) == 0
		}
		if len(vs) != 1 {
			return false
		}
		// The reported visit time must be inside the segment and the
		// position there must be x.
		pos, err := s.PositionAt(vs[0])
		return err == nil && numeric.AlmostEqual(pos, x, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
