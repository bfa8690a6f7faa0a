package main

import (
	"testing"
	"time"
)

func TestPctIsNearestRank(t *testing.T) {
	d := dist{5, 1, 4, 2, 3}
	if got := d.median(); got != 3 {
		t.Fatalf("median %v, want 3", got)
	}
	if got := d.pct(0.99); got != 5 {
		t.Fatalf("p99 %v, want 5", got)
	}
}

func TestWindowedTailNeedsTenBeyond(t *testing.T) {
	var s series
	for i := 0; i < 99; i++ {
		s.addAt(time.Duration(i)*100*time.Millisecond, time.Duration(i), 1)
	}
	if _, _, err := s.windowedTail("x", 0.9, 10*time.Second); err == nil {
		t.Fatal("99 samples accepted for a p90 with ten beyond")
	}
}

// threeWindows holds 100 samples in each of three 5 s windows, the middle
// one ten times slower.
func threeWindows() series {
	var s series
	for w, scale := range []int{1, 10, 1} {
		for i := 0; i < 100; i++ {
			at := time.Duration(w)*tailSpan + time.Duration(i)*tailSpan/100
			s.addAt(at, time.Duration(scale*(i+1+w)), 1)
		}
	}
	return s
}

func TestWindowedTailIsMedianOfOddWindows(t *testing.T) {
	got, k, err := threeWindows().windowedTail("x", 0.9, 3*tailSpan)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 || got != 92 {
		t.Fatalf("windowed p90 %v over %d windows, want the median window's 92 over 3", got, k)
	}
}

func TestWindowedTailFallsBackToExact(t *testing.T) {
	s := threeWindows()
	exact := s.pct(0.9)
	// Two windows' length: never a median of two.
	if got, k, _ := s.windowedTail("x", 0.9, 2*tailSpan+tailSpan/2); k != 1 || got != exact {
		t.Fatalf("two windows gave %v over %d, want the exact %v", got, k, exact)
	}
	// Three windows, but too few samples in each for ten beyond p95.
	if got, k, _ := s.windowedTail("x", 0.95, 3*tailSpan); k != 1 || got != s.pct(0.95) {
		t.Fatalf("thin windows gave %v over %d, want the exact %v", got, k, s.pct(0.95))
	}
}

func TestRatePerSecUsesCompleteWindows(t *testing.T) {
	var r rate
	for i := 0; i < 3; i++ {
		r.count(time.Duration(i)*time.Second+time.Millisecond, 10+i)
	}
	r.count(3500*time.Millisecond, 1000) // partial last window
	if got := r.perSec(3600 * time.Millisecond); got != 11 {
		t.Fatalf("per-second rate %v, want the median complete window 11", got)
	}
}
