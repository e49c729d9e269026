package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowsource"
	"megadata/internal/workload"
)

// epochStart is where flowstream's and the fleet's virtual clocks begin
// (both default to it); epochs are one virtual minute wide by default.
var epochStart = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

const epochWidth = time.Minute

// spec is one workload's fixed shape. Every duration fraction is a share
// of --seconds, so a longer run scales each phase alike.
type spec struct {
	name string
	// fleet selects the federation.Fleet harness instead of flowstream.
	fleet bool
	sites []string
	// budget is the per-site Flowtree budget (flowstream harness).
	budget int

	// Traffic: Zipf skew and host populations of the generated records.
	skew         float64
	sources      int
	destinations int
	// pool is how many distinct records are generated; the stream cycles
	// through them.
	pool int

	// Ingest phase: offered record rate (0 = line rate), seal cadence,
	// its share of the run, and how many bursts it is cut into (each
	// ends once everything sent is answerable).
	rate      float64
	sealEvery time.Duration
	ingest    float64
	bursts    int
	// Fleet ingest: fixed epochs of fixed size, sealed back to back.
	epochs, perEpoch int

	// History (query-storm): epochs × records per site, loaded during
	// set-up.
	historyEpochs, historyPerSite int

	// Queries: dashboards polled during ingest (rate, q/s), then an
	// open loop at openRate for the open share of the run, then a closed
	// loop for the closed share.
	dashRate float64
	// maxWindow caps the epochs a query window spans; queryLocs caps how
	// many locations the statement mix draws subsets from (0 = all).
	maxWindow int
	queryLocs int
	openRate  float64
	open      float64
	closed    float64
}

// workloads are the benchmark's fixed traffic mixes; later changes refer
// to them by name.
var workloads = map[string]spec{
	"firehose": {
		name: "firehose", sites: []string{"west"}, budget: 4096,
		skew: 1.1, sources: 1 << 17, destinations: 1 << 14, pool: 1 << 19,
		rate: 0, sealEvery: 70 * time.Millisecond, ingest: 0.5, bursts: 4,
		maxWindow: 16, openRate: 500, open: 0.3, closed: 0.2,
	},
	"live-ops": {
		name: "live-ops", sites: []string{"west"}, budget: 4096,
		skew: 1.4, sources: 1 << 14, destinations: 1 << 12, pool: 1 << 18,
		rate: 70000, sealEvery: 80 * time.Millisecond, ingest: 0.75, bursts: 1,
		dashRate: 100, closed: 0.25,
	},
	"query-storm": {
		name: "query-storm", sites: []string{"west", "east", "north", "south"},
		skew: 1.2, sources: 1 << 14, destinations: 1 << 12, pool: 1 << 18,
		historyEpochs: 128, historyPerSite: 256, budget: 512,
		maxWindow: 16, openRate: 300, open: 0.6, closed: 0.4,
	},
	"fleet": {
		name: "fleet", fleet: true, sites: []string{"fleet"},
		skew: 1.2, sources: 1 << 14, destinations: 1 << 12, pool: 1 << 18,
		epochs: 100, perEpoch: 1024,
		maxWindow: 8, queryLocs: 4, openRate: 400, open: 0.45, closed: 0.3,
	},
}

// queryConns is how many keep-alive connections the open and closed
// loops use: one per CPU of the two-core host the benchmark was sized on.
const queryConns = 2

// inputs are a run's generated inputs: a pool of records encoded as
// frames in fixed-size chunks.
type inputs struct {
	recs   []flow.Record
	chunks [][]byte
}

// chunkRecs is the records per chunk, one socket write each (the pool's
// last chunk may be short).
const chunkRecs = 256

func genInputs(sp spec, seed int64) (*inputs, error) {
	g, err := workload.NewFlowGen(workload.FlowConfig{
		Seed: seed, Skew: sp.skew, Sources: sp.sources, Destinations: sp.destinations,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{recs: g.Records(sp.pool)}
	for lo := 0; lo < len(in.recs); lo += chunkRecs {
		var buf []byte
		for _, r := range in.recs[lo:min(lo+chunkRecs, len(in.recs))] {
			buf = flowsource.AppendFrame(buf, r)
		}
		in.chunks = append(in.chunks, buf)
	}
	return in, nil
}

// stream yields the cyclic record stream chunk by chunk: chunk i of the
// stream is pool chunk i mod len(chunks).
func (in *inputs) chunk(i int) ([]byte, []flow.Record) {
	c := i % len(in.chunks)
	lo := c * chunkRecs
	return in.chunks[c], in.recs[lo:min(lo+chunkRecs, len(in.recs))]
}

// ledger is the driver's exact account of what it sent: totals per site
// and bytes per host pair (the "flow" heavy attribution is judged on).
type ledger struct {
	site  map[string]flow.Counters
	pairs map[[2]flow.IPv4]uint64
}

func newLedger() *ledger {
	return &ledger{site: map[string]flow.Counters{}, pairs: map[[2]flow.IPv4]uint64{}}
}

func (l *ledger) add(site string, recs []flow.Record) {
	c := l.site[site]
	for _, r := range recs {
		c.Add(flow.CountersOf(r))
		l.pairs[[2]flow.IPv4{r.Key.SrcIP, r.Key.DstIP}] += r.Bytes
	}
	l.site[site] = c
}

func (l *ledger) total() flow.Counters {
	var t flow.Counters
	for _, c := range l.site {
		t.Add(c)
	}
	return t
}

type heavyPair struct {
	src, dst flow.IPv4
	bytes    uint64
}

// top returns the k host pairs with the most bytes, ties broken by key.
func (l *ledger) top(k int) []heavyPair {
	out := make([]heavyPair, 0, len(l.pairs))
	for p, b := range l.pairs {
		out = append(out, heavyPair{p[0], p[1], b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].bytes != out[j].bytes {
			return out[i].bytes > out[j].bytes
		}
		if out[i].src != out[j].src {
			return out[i].src < out[j].src
		}
		return out[i].dst < out[j].dst
	})
	return out[:min(k, len(out))]
}

// window is a half-open range of sealed epochs [lo, hi).
type window struct{ lo, hi int }

func (w window) clause() string {
	return fmt.Sprintf(`FROM "%s" TO "%s"`,
		epochStart.Add(time.Duration(w.lo)*epochWidth).Format(time.RFC3339),
		epochStart.Add(time.Duration(w.hi)*epochWidth).Format(time.RFC3339))
}

// alignedWindows lists every power-of-two-long window, at most maxLen
// epochs long and aligned to its own length, inside [0, epochs).
func alignedWindows(epochs, maxLen int) []window {
	var out []window
	for l := 1; l <= min(epochs, maxLen); l *= 2 {
		for lo := 0; lo+l <= epochs; lo += l {
			out = append(out, window{lo, lo + l})
		}
	}
	return out
}

// locationSets lists every non-empty subset of locs (capped at 2^6).
func locationSets(locs []string) [][]string {
	n := min(len(locs), 6)
	var out [][]string
	for m := 1; m < 1<<n; m++ {
		var set []string
		for i := 0; i < n; i++ {
			if m&(1<<i) != 0 {
				set = append(set, locs[i])
			}
		}
		out = append(out, set)
	}
	return out
}

// statementMix draws FlowQL statements over Zipf-popular (location set,
// window) pairs; the operator mix covers TOPK, HHH, QUERY, ABOVE and
// DRILLDOWN. Pairs are grouped by cost class (window length, set size)
// and each class is shuffled with the seed; popularity ranks deal the
// classes round-robin in a fixed order. So the seed decides which pairs
// are hot, while every seed gets the same cost profile among them.
type statementMix struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	pairs []pair
}

type pair struct {
	locs []string
	w    window
}

func newStatementMix(seed int64, locs []string, windows []window) *statementMix {
	rng := rand.New(rand.NewSource(seed))
	classes := map[[2]int][]pair{}
	var keys [][2]int
	for _, set := range locationSets(locs) {
		for _, w := range windows {
			k := [2]int{w.hi - w.lo, len(set)}
			if classes[k] == nil {
				keys = append(keys, k)
			}
			classes[k] = append(classes[k], pair{set, w})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	m := &statementMix{rng: rng}
	for _, k := range keys {
		c := classes[k]
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	for dealt := true; dealt; {
		dealt = false
		for _, k := range keys {
			if c := classes[k]; len(c) > 0 {
				m.pairs = append(m.pairs, c[0])
				classes[k] = c[1:]
				dealt = true
			}
		}
	}
	m.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(m.pairs)-1))
	return m
}

func (m *statementMix) next() string {
	p := m.pairs[m.zipf.Uint64()]
	return statement(m.rng.Intn(100), p.locs, p.w)
}

// statement renders operator choice c (0-99) over locs and window w.
func statement(c int, locs []string, w window) string {
	at := ""
	if len(locs) > 0 {
		at = " AT " + strings.Join(locs, ", ")
	}
	span := w.hi - w.lo
	switch {
	case c < 30:
		return "SELECT TOPK(10)" + at + " " + w.clause()
	case c < 50:
		return "SELECT HHH(0.05)" + at + " " + w.clause()
	case c < 70:
		return "SELECT QUERY" + at + " " + w.clause() + " WHERE src = 10.0.0.0/16 AND dport = 443"
	case c < 85:
		return fmt.Sprintf("SELECT ABOVE(%d)%s %s", span*4000000, at, w.clause())
	default:
		return "SELECT DRILLDOWN" + at + " " + w.clause()
	}
}

// dashboardSpan is the trailing window, in epochs, of live-ops' panels.
// They share it, so each seal costs the dashboards one cold merge and the
// other polls of that epoch hit the memo cache.
const dashboardSpan = 4

// dashboard is live-ops' panel i (TOPK, HHH, QUERY, ABOVE, DRILLDOWN in
// turn), re-rendered against the newest sealed epoch each poll.
func dashboard(i, sealed int, locs []string) string {
	span := min(dashboardSpan, sealed)
	return statement([]int{0, 30, 50, 70, 85}[i%5], locs, window{sealed - span, sealed})
}

// probeBudget bounds the freshness probe's standing view, as a dashboard
// would; the root totals the probe reads stay exact under any budget.
const probeBudget = 4096

// probeStatement is the freshness probe's standing query over locs (nil =
// every location).
func probeStatement(locs []string) string {
	if len(locs) == 0 {
		return "SELECT QUERY FROM ALL"
	}
	return "SELECT QUERY AT " + strings.Join(locs, ", ") + " FROM ALL"
}

func subscribeURL(base string, locs []string) string {
	return base + "/subscribe?budget=" + strconv.Itoa(probeBudget) + "&q=" + url.QueryEscape(probeStatement(locs))
}

// addStream accounts chunks chunks of the cyclic stream sent to site:
// whole passes over the pool scale the pool's ledger, the rest is added
// chunk by chunk.
func (l *ledger) addStream(in *inputs, chunks int, site string) {
	if cycles := uint64(chunks / len(in.chunks)); cycles > 0 {
		pool := newLedger()
		pool.add(site, in.recs)
		c := pool.site[site]
		c.Packets, c.Bytes, c.Flows = c.Packets*cycles, c.Bytes*cycles, c.Flows*cycles
		sum := l.site[site]
		sum.Add(c)
		l.site[site] = sum
		for p, b := range pool.pairs {
			l.pairs[p] += b * cycles
		}
	}
	for i := 0; i < chunks%len(in.chunks); i++ {
		_, recs := in.chunk(i)
		l.add(site, recs)
	}
}
