package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as measured: p99 needs at least 1000 samples, p90 at least 100.
const minBeyond = 10

// dist is a sorted sample set with the summary statistics the benchmark
// reports. Failed operations enter as +Inf, so they count as slower than
// any limit.
type dist struct {
	s []float64
}

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{s: s}
}

func (d dist) n() int { return len(d.s) }

// rank is the nearest-rank index of quantile p (0 < p <= 1).
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	return max(0, min(i, n-1))
}

// pct is the nearest-rank percentile p of the samples (NaN when empty).
func (d dist) pct(p float64) float64 {
	if len(d.s) == 0 {
		return math.NaN()
	}
	return d.s[rank(len(d.s), p)]
}

// beyond is the number of samples ranked after percentile p.
func (d dist) beyond(p float64) int {
	if len(d.s) == 0 {
		return 0
	}
	return len(d.s) - 1 - rank(len(d.s), p)
}

// tailOK reports whether percentile p has at least minBeyond samples
// beyond it, the rule for printing a tail as measured.
func (d dist) tailOK(p float64) bool { return d.beyond(p) >= minBeyond }

// tail is the percentile p of samples taken in time order, made robust
// to one disturbed stretch of a run: the samples are cut into as many
// consecutive segments (at most 5) as still leave minBeyond samples beyond
// p in each, and the median of the segments' percentiles is reported.
// With too few samples for two segments it is the plain percentile.
func tail(samples []float64, p float64) (v float64, segments int) {
	need := int(math.Round(minBeyond / (1 - p)))
	k := min(5, len(samples)/need)
	if k < 2 {
		return newDist(samples).pct(p), 1
	}
	var per []float64
	for i := 0; i < k; i++ {
		per = append(per, newDist(samples[i*len(samples)/k:(i+1)*len(samples)/k]).pct(p))
	}
	return median(per), k
}

// median is the middle value (mean of the two middle values for an even
// count), as Python's statistics.median computes it.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the exclusive method, matching Python's
// statistics.quantiles(values, n=4) — the rule the run-to-run spread is
// judged by.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// statistics.quantiles, method="exclusive", n=4.
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// sendLog is the driver's cumulative record ledger for one router
// connection: after write i, cum[i] records had been handed to the socket,
// and at[i] is when write i was issued. Records within one write share its
// send time.
type sendLog struct {
	cum []uint64
	at  []time.Time
}

func (l *sendLog) add(n uint64, at time.Time) {
	prev := uint64(0)
	if len(l.cum) > 0 {
		prev = l.cum[len(l.cum)-1]
	}
	l.cum = append(l.cum, prev+n)
	l.at = append(l.at, at)
}

func (l *sendLog) total() uint64 {
	if len(l.cum) == 0 {
		return 0
	}
	return l.cum[len(l.cum)-1]
}

// lastCovered maps an answer's exact cumulative Flows total to the send
// time of the last record that answer covers: record number flows (1-based)
// went out in the first write whose cumulative count reaches it. A seal
// that covers only part of a write still maps to that write. ok is false
// for a zero total or one beyond everything sent.
func (l *sendLog) lastCovered(flows uint64) (time.Time, bool) {
	if flows == 0 || flows > l.total() {
		return time.Time{}, false
	}
	i := sort.Search(len(l.cum), func(i int) bool { return l.cum[i] >= flows })
	return l.at[i], true
}
