package main

import (
	"testing"
	"time"
)

// TestSleepUntil checks that the generator's wait never ends before the
// due time, and ends well within the millisecond a Go timer can oversleep.
func TestSleepUntil(t *testing.T) {
	var late []float64
	for _, d := range []time.Duration{300 * time.Microsecond, 900 * time.Microsecond, 2500 * time.Microsecond} {
		for range 5 {
			due := time.Now().Add(d)
			sleepUntil(due)
			woke := time.Now()
			if woke.Before(due) {
				t.Fatalf("sleepUntil(%v ahead) returned %v early", d, due.Sub(woke))
			}
			late = append(late, ms(woke.Sub(due)))
		}
	}
	// The median leaves room for a loaded machine; a Go timer alone
	// typically misses by about half a millisecond.
	if m := median(late); m > 0.5 {
		t.Errorf("median oversleep %.3f ms, want under 0.5 ms", m)
	}
	sleepUntil(time.Now().Add(-time.Second)) // a past due time returns at once
}
