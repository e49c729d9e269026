package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.median and
	// statistics.quantiles(values, n=4).
	cases := []struct {
		in          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 7, 2, 8, 6.5}, 6.5, 2, 8},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.med)
		}
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) dist {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return newDist(v)
	}
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 990},
		{100, 0.90, true, 90},
		{99, 0.90, false, 90},
		{10, 0.5, false, 5},
	}
	for _, c := range cases {
		d := seq(c.n)
		if got := d.tailOK(c.p); got != c.ok {
			t.Errorf("n=%d p=%v: tailOK = %v (beyond %d), want %v", c.n, c.p, got, d.beyond(c.p), c.ok)
		}
		if got := d.pct(c.p); got != c.want {
			t.Errorf("n=%d p=%v: pct = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	// A failed operation is +Inf: slower than any limit, so it lands in
	// the tail.
	d := newDist(append(make([]float64, 99), math.Inf(1)))
	if !math.IsInf(d.pct(1), 1) || d.pct(0.5) != 0 {
		t.Errorf("failed request not ranked last: p100 %v p50 %v", d.pct(1), d.pct(0.5))
	}
}

func TestFreshnessMatcher(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var log sendLog
	for i := 0; i < 4; i++ {
		log.add(256, t0.Add(time.Duration(i)*time.Millisecond))
	}
	cases := []struct {
		flows uint64
		ok    bool
		write int
	}{
		{1, true, 0},
		{256, true, 0},   // exactly the end of the first write
		{257, true, 1},   // first record of the second write
		{300, true, 1},   // a seal covering only part of a TCP write
		{1024, true, 3},  // everything sent
		{0, false, 0},    // nothing covered yet
		{1025, false, 0}, // more than was sent: a broken answer
	}
	for _, c := range cases {
		at, ok := log.lastCovered(c.flows)
		if ok != c.ok {
			t.Errorf("flows %d: ok = %v, want %v", c.flows, ok, c.ok)
			continue
		}
		if ok && !at.Equal(t0.Add(time.Duration(c.write)*time.Millisecond)) {
			t.Errorf("flows %d: matched send time %v, want write %d", c.flows, at, c.write)
		}
	}
	a := &answers{}
	a.record(t0.Add(10*time.Millisecond), 300)
	a.record(t0.Add(11*time.Millisecond), 0)
	got, err := a.freshness(&log)
	if err != nil || len(got) != 1 || got[0] != 9 {
		t.Errorf("freshness = %v, %v; want [9] ms", got, err)
	}
	a.record(t0, 5000)
	if _, err := a.freshness(&log); err == nil {
		t.Error("answer beyond the send log was not an error")
	}
}

func TestStatementMixIsSeedDeterministic(t *testing.T) {
	locs := []string{"west", "east", "north", "south"}
	draw := func(seed int64) []string {
		m := newStatementMix(seed, locs, alignedWindows(128, 16))
		out := make([]string, 500)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 draw %d differs: %q vs %q", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 drew the same statements")
	}
	// The pair population must exceed the 128-entry memo cache several
	// times over.
	if n := len(locationSets(locs)) * len(alignedWindows(128, 16)); n < 4*128 {
		t.Errorf("only %d (location set, window) pairs", n)
	}
}

func TestStreamLedgerMatchesChunkByChunk(t *testing.T) {
	sp := workloads["live-ops"]
	sp.pool = 1000
	in, err := genInputs(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 9 // two passes over the 4-chunk pool, and one more
	fast, slow := newLedger(), newLedger()
	fast.addStream(in, chunks, "west")
	for i := 0; i < chunks; i++ {
		_, recs := in.chunk(i)
		slow.add("west", recs)
	}
	if fast.site["west"] != slow.site["west"] || len(fast.pairs) != len(slow.pairs) {
		t.Fatalf("stream ledger %+v, chunk ledger %+v", fast.site["west"], slow.site["west"])
	}
	for p, b := range slow.pairs {
		if fast.pairs[p] != b {
			t.Fatalf("pair %v: %d vs %d bytes", p, fast.pairs[p], b)
		}
	}
}

func TestTailIsMedianOfSegmentPercentiles(t *testing.T) {
	// 3000 samples: three segments of 1000, each with ten beyond p99.
	samples := make([]float64, 3000)
	for i := range samples {
		samples[i] = float64(i % 1000)
	}
	// One disturbed stretch: the middle segment's tail is huge.
	for i := 1990; i < 2000; i++ {
		samples[i] = 1e6
	}
	v, segs := tail(samples, 0.99)
	if segs != 3 || v != 989 {
		t.Errorf("tail = %v over %d segments, want 989 over 3", v, segs)
	}
	// Too few samples for two segments: the plain percentile.
	if v, segs := tail(samples[:1500], 0.99); segs != 1 || v != newDist(samples[:1500]).pct(0.99) {
		t.Errorf("short tail = %v over %d segments", v, segs)
	}
}
