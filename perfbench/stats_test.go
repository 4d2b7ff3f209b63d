package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {0.99, 3.97}, {1, 4},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	s := summarize([]float64{10, 20, 30, 40, 50})
	if s != (summary{Q1: 20, Median: 30, Q3: 40, N: 5}) {
		t.Errorf("summarize = %+v", s)
	}
}

func TestLatencyHistQuantile(t *testing.T) {
	h := newLatencyHist()
	for i := 0; i < 100; i++ {
		h.add(1000 * time.Nanosecond)
	}
	// 100 samples in the 1000 ns bucket, spread evenly across it.
	if got := h.quantile(0.5); !near(got, 1000.5) {
		t.Errorf("p50 = %v, want 1000.5", got)
	}
	for i := 0; i < 98; i++ {
		h.add(2000 * time.Nanosecond)
	}
	h.add(time.Millisecond) // beyond the dense range
	h.add(2 * time.Millisecond)
	if h.n != 200 {
		t.Fatalf("n = %d, want 200", h.n)
	}
	if got := h.quantile(0.25); !near(got, 1000.5) {
		t.Errorf("p25 = %v, want 1000.5", got)
	}
	if got, want := h.quantile(0.75), 2000+50.0/98; !near(got, want) {
		t.Errorf("p75 = %v, want %v", got, want)
	}
	if got := h.quantile(0.995); got != 1e6 {
		t.Errorf("p99.5 = %v, want the first overflow sample 1e6", got)
	}
	if got := h.quantile(1); got != 2e6 {
		t.Errorf("p100 = %v, want 2e6", got)
	}
}

func TestRepeatRunsAtLeastOnce(t *testing.T) {
	n := 0
	ds := repeat(0, func() time.Duration { n++; return time.Millisecond })
	if n != 1 || len(ds) != 1 {
		t.Errorf("repeat with no budget ran %d passes, want 1", n)
	}
}

func TestPassLayers(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "pass", Parent: -1, Start: 0, End: 100},
		{Name: "program", Parent: 0, Start: 5, End: 95},
		{Name: "p4.parse", Parent: 1, Start: 10, End: 20, leaf: true},
		{Name: "rebuild", Parent: 1, Start: 30, End: 80},
		{Name: "p4.parse", Parent: 3, Start: 40, End: 45, leaf: true},
		{Name: "pass", Parent: -1, Start: 100, End: 200},
	}
	tr.finish()
	byName, unattributed := tr.passLayers(0)
	if byName["p4.parse"] != 15 || byName["rebuild"] != 50 {
		t.Errorf("byName = %v", byName)
	}
	// pass self 10 + program self 30 + rebuild self 45.
	if unattributed != 85 {
		t.Errorf("unattributed = %d, want 85", unattributed)
	}
	if tr.spans[3].Self != 45 {
		t.Errorf("rebuild self = %d, want 45", tr.spans[3].Self)
	}
}
