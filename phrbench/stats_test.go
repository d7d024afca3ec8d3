package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		q, want float64
	}{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
	// p99 of 1000 samples leaves exactly ten above it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := quantile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestFromDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

	// A request due at 10ms that went out late at 11ms, because the
	// generator woke late or its connection was busy, and completed at
	// 14ms took 4ms: the late start is charged, not hidden.
	if got := fromDue(at(10), at(14)); got != 4 {
		t.Errorf("fromDue = %v ms, want 4", got)
	}
}

// TestStallChargesEveryDelayedRequest replays an open loop by hand: one
// connection, a request every 10ms, and a 100ms stall on the first. The
// requests queued behind the stall must show the wait, not hide it.
func TestStallChargesEveryDelayedRequest(t *testing.T) {
	t0 := time.Unix(1000, 0)
	service := []time.Duration{100 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	free := t0
	var lat []float64
	for i, s := range service {
		due := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		sent := due
		if free.After(due) {
			sent = free
		}
		done := sent.Add(s)
		lat = append(lat, fromDue(due, done))
		free = done
	}
	want := []float64{100, 91, 82, 73}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("request %d: latency %v ms, want %v ms", i, lat[i], want[i])
		}
	}
}

func TestHalfDrift(t *testing.T) {
	window := 10 * time.Second
	var steady, growing []sample
	for i := range 200 {
		due := time.Duration(i) * window / 200
		steady = append(steady, sample{due, 1 + float64(i%5)/10})
		ms := 1.0
		if due >= window/2 {
			ms = 1.5
		}
		growing = append(growing, sample{due, ms})
	}
	if d := halfDrift(steady, window, 50); d != 0 {
		t.Errorf("steady run drift = %v, want 0", d)
	}
	if d := halfDrift(growing, window, 50); math.Abs(d-0.5) > 1e-9 {
		t.Errorf("growing run drift = %v, want 0.5", d)
	}
	if d := halfDrift(growing[:60], window, 50); d != 0 {
		t.Errorf("drift from too few samples = %v, want 0", d)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {20, 50}}, 60},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"sticking out", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside", []interval{{150, 160}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestScheduleIsExactAndSeeded(t *testing.T) {
	sp := specs["cold-disclose"]
	a, b := buildSchedule(sp, 7, 10), buildSchedule(sp, 7, 10)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	counts := countOps(a)
	for op := range numOps {
		if want := int(math.Round(sp.rate * sp.mix[op] * 10)); counts[op] != want {
			t.Errorf("%s: %d requests, want %d", opNames[op], counts[op], want)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("request %d due before request %d", i, i-1)
		}
	}
	if last := a[len(a)-1].due; last >= 10*time.Second {
		t.Errorf("last request due at %v, after the window", last)
	}
	c := buildSchedule(sp, 8, 10)
	same := true
	for i := range min(len(a), len(c)) {
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 7 and 8 give the same schedule")
	}
}
