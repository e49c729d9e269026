package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"megadata/internal/datastore"
	"megadata/internal/federation"
	"megadata/internal/flow"
	"megadata/internal/flowdb"
	"megadata/internal/flowql"
	"megadata/internal/flowserve"
	"megadata/internal/flowsource"
	"megadata/internal/flowstream"
	"megadata/internal/flowtree"
	"megadata/internal/primitive"
	"megadata/internal/simnet"
)

// span is one timed call into a layer. Spans of one batch or one query
// share an id; parent is the index of the batch's or query's root span
// (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

// tracer records spans when on; off, it only runs the calls, which gives
// the untraced baseline the overhead is measured against.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	root   int
	id     int
	sample []metrics.Sample
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), root: -1, sample: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
	}}
}

func (t *tracer) heap() (objects, bytes uint64) {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64(), t.sample[1].Value.Uint64()
}

// begin opens a root span (one batch or one query) that the following
// stage spans hang off.
func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	t.id++
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, ID: t.id, Parent: -1, Start: now, End: now})
	t.root = len(t.spans) - 1
}

func (t *tracer) end() {
	if t.on && t.root >= 0 {
		t.spans[t.root].End = time.Since(t.t0).Nanoseconds()
	}
}

// do runs fn inside a stage span, with heap allocation deltas around it.
func (t *tracer) do(name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	o0, b0 := t.heap()
	start := time.Since(t.t0).Nanoseconds()
	err := fn()
	end := time.Since(t.t0).Nanoseconds()
	o1, b1 := t.heap()
	t.spans = append(t.spans, span{Name: name, ID: t.id, Parent: t.root, Start: start, End: end,
		Allocs: o1 - o0, Bytes: b1 - b0})
	return err
}

// stageStats sums the stage spans by name.
type stageStats struct {
	n             int
	ns            int64
	allocs, bytes uint64
}

func (t *tracer) stages() map[string]*stageStats {
	out := map[string]*stageStats{}
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &stageStats{}
			out[s.Name] = st
		}
		st.n++
		st.ns += s.End - s.Start
		st.allocs += s.Allocs
		st.bytes += s.Bytes
	}
	return out
}

// replayCfg is the slice of a workload the replay runs through the layers.
type replayCfg struct {
	epochs, perSite int
	queries         int
}

var replays = map[string]replayCfg{
	"firehose":    {epochs: 24, perSite: 16384, queries: 400},
	"live-ops":    {epochs: 24, perSite: 8192, queries: 384},
	"query-storm": {epochs: 32, perSite: 256, queries: 600},
	"fleet":       {epochs: 24, perSite: 1024, queries: 400},
}

// replayState is one pass of the replay: fresh layers, same inputs.
type replayState struct {
	sp    spec
	rc    replayCfg
	tr    *tracer
	in    *inputs
	sites []string

	stores      map[string]*datastore.Store
	net         *simnet.Network
	bare, viewd *flowdb.DB
	sub         *flowql.Subscription
	sendBase    map[string]*flowtree.Tree
	recvBase    map[string]*flowtree.Tree
	sys         *flowstream.System
	fleet       *federation.Fleet
	qs          *flowserve.QueryServer

	records, exports, deltas int
	nodes, frameBytes        int
	merged, queries          int
	selectCold, handlerSelf  []int64
}

const aggName = "flowtree"

func newReplayState(sp spec, rc replayCfg, in *inputs, traced bool) (*replayState, error) {
	rs := &replayState{sp: sp, rc: rc, tr: newTracer(traced), in: in, sites: sp.sites,
		stores: map[string]*datastore.Store{}, net: simnet.NewNetwork(),
		bare: flowdb.New(), viewd: flowdb.New(),
		sendBase: map[string]*flowtree.Tree{}, recvBase: map[string]*flowtree.Tree{}}
	budget := sp.budget
	if sp.fleet {
		budget = 256
	}
	rs.net.AddSite("central")
	for _, site := range rs.sites {
		// The site store is wired as flowstream.New wires it.
		st := datastore.New(site, time.Now)
		err := st.Register(datastore.AggregatorConfig{
			Name:     aggName,
			New:      func() (primitive.Aggregator, error) { return primitive.NewFlowtree(aggName, budget) },
			Strategy: datastore.StrategyRoundRobin, BudgetBytes: 64 << 20, EpochWidth: epochWidth,
		})
		if err != nil {
			return nil, err
		}
		if err := st.Subscribe("router", aggName); err != nil {
			return nil, err
		}
		rs.stores[site] = st
		rs.net.AddSite(simnet.SiteID(site))
		if err := rs.net.Connect(simnet.SiteID(site), "central",
			simnet.Link{BytesPerSecond: 10e6, Latency: 20 * time.Millisecond}); err != nil {
			return nil, err
		}
	}
	// The standing view the end-to-end run keeps: the freshness probe's.
	var err error
	if rs.sub, err = flowql.Subscribe(rs.viewd, probeStatement(sp.sites),
		flowql.SubConfig{Budget: probeBudget, Depth: 1 << 12}); err != nil {
		return nil, err
	}
	if rs.sys, err = flowstream.New(flowstream.Config{Sites: rs.sites, TreeBudget: budget,
		DeltaExports: sp.fleet}); err != nil {
		return nil, err
	}
	fcfg := federation.FleetConfig{Fanout: []int{len(rs.sites)}, LeafBudget: budget}
	if sp.fleet {
		fcfg = federation.FleetConfig{Fanout: []int{16, 16}, LeafBudget: 256, AggBudget: 2048, DeltaExports: true,
			Plan: simnet.LinkPlan{Seed: 1, Classes: federation.FaultClasses()}}
	}
	if rs.fleet, err = federation.NewFleet(fcfg); err != nil {
		return nil, err
	}
	rs.qs, err = flowserve.NewQuery(flowserve.QueryConfig{DB: rs.viewd, RatePerSec: queryRate})
	return rs, err
}

// epochRecords is replay epoch e's records for site index s: the same
// pool slices the end-to-end run streams.
func (rs *replayState) epochRecords(e, s int) []flow.Record {
	n := len(rs.in.recs)
	lo := ((e*len(rs.sites) + s) * rs.rc.perSite) % n
	if lo+rs.rc.perSite > n {
		lo = 0
	}
	return rs.in.recs[lo : lo+rs.rc.perSite]
}

// recordPath runs one epoch through the site pipeline: decode, ingest,
// seal, encode, transfer, decode at central, insert, notify.
func (rs *replayState) recordPath(e int, frames [][]byte) error {
	tr := rs.tr
	tr.begin("epoch")
	defer tr.end()
	var rows []flowdb.Row
	start := epochStart.Add(time.Duration(e) * epochWidth)
	for s, site := range rs.sites {
		st := rs.stores[site]
		fr := flowsource.NewFrameReader(bytes.NewReader(frames[s]))
		batch := make([]flow.Record, 0, 4096)
		for done := false; !done; {
			batch = batch[:0]
			err := tr.do("flowsource.decode", func() error {
				for len(batch) < cap(batch) {
					r, err := fr.Next()
					if errors.Is(err, io.EOF) {
						done = true
						return nil
					}
					if err != nil {
						return err
					}
					batch = append(batch, r)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				break
			}
			rs.records += len(batch)
			if err := tr.do("datastore.ingest", func() error {
				parts := make([][]flow.Record, st.Shards())
				for _, r := range batch {
					i := st.FlowShard(r)
					parts[i] = append(parts[i], r)
				}
				return st.IngestFlowParts("router", parts)
			}); err != nil {
				return err
			}
		}
		var tree *flowtree.Tree
		if err := tr.do("datastore.seal", func() error {
			agg, err := st.SealExport(aggName)
			if err != nil {
				return err
			}
			ft, ok := agg.(*primitive.FlowtreeAggregator)
			if !ok {
				return fmt.Errorf("sealed aggregator is %T", agg)
			}
			tree = ft.Tree()
			return nil
		}); err != nil {
			return err
		}
		var wire []byte
		tr.do("flowtree.encode", func() error {
			if rs.sp.fleet {
				var delta bool
				wire, delta = tree.AppendDeltaOrFull(nil, rs.sendBase[site], 0.5)
				rs.sendBase[site] = tree
				if delta {
					rs.deltas++
				}
			} else {
				wire = tree.AppendBinary(nil)
			}
			return nil
		})
		rs.exports++
		rs.nodes += tree.Len()
		rs.frameBytes += len(wire)
		if err := tr.do("simnet.transfer", func() error {
			_, err := rs.net.Transfer(simnet.SiteID(site), "central", uint64(len(wire)))
			return err
		}); err != nil {
			return err
		}
		var got *flowtree.Tree
		if err := tr.do("flowtree.decode", func() error {
			var err error
			if rs.sp.fleet {
				got, err = flowtree.DecodeDelta(wire, rs.recvBase[site], 0)
				rs.recvBase[site] = got
			} else {
				got, err = flowtree.Decode(wire, 0)
			}
			return err
		}); err != nil {
			return err
		}
		rows = append(rows, flowdb.Row{Location: site, Start: start, Width: epochWidth, Tree: got})
	}
	if err := tr.do("flowdb.insert_batch", func() error { return rs.bare.InsertBatch(rows) }); err != nil {
		return err
	}
	if err := tr.do("flowdb.insert_batch_views", func() error { return rs.viewd.InsertBatch(rows) }); err != nil {
		return err
	}
	return tr.do("flowql.notify", func() error {
		select {
		case <-rs.sub.Updates():
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("no notification after insert")
		}
	})
}

// exportPath feeds the same epoch to an in-process flowstream.System and
// times its EndEpoch, then to the federation layer.
func (rs *replayState) exportPath(e int) error {
	tr := rs.tr
	tr.begin("export")
	defer tr.end()
	for s, site := range rs.sites {
		recs := rs.epochRecords(e, s)
		if err := tr.do("flowstream.ingest_batch", func() error { return rs.sys.IngestBatch(site, recs) }); err != nil {
			return err
		}
	}
	if err := tr.do("flowstream.end_epoch", rs.sys.EndEpoch); err != nil {
		return err
	}
	leaves := rs.fleet.Leaves()
	per := make([][]flow.Record, len(leaves))
	for s := range rs.sites {
		for _, r := range rs.epochRecords(e, s) {
			i := s
			if rs.sp.fleet {
				i = int(r.Key.Hash() % uint64(len(leaves)))
			}
			per[i] = append(per[i], r)
		}
	}
	for i, recs := range per {
		if len(recs) == 0 {
			continue
		}
		if err := tr.do("federation.ingest", func() error { return rs.fleet.Ingest(leaves[i].ID, recs) }); err != nil {
			return err
		}
	}
	return tr.do("federation.end_epoch", rs.fleet.EndEpoch)
}

// queryPath runs one statement through parse, select (cold, then warm),
// the operator and JSON encoding, then as a whole request through the
// flowserve handler.
func (rs *replayState) queryPath(stmt string) error {
	tr := rs.tr
	tr.begin("query")
	defer tr.end()
	db := rs.viewd
	var q *flowql.Query
	if err := tr.do("flowql.parse", func() error {
		var err error
		q, err = flowql.Parse(stmt)
		return err
	}); err != nil {
		return err
	}
	var tree *flowtree.Tree
	var matched int
	hits := db.CacheStats().Hits
	if err := tr.do("flowdb.select", func() error {
		var err error
		tree, matched, err = db.Select(q.Locations, q.From, q.To)
		return err
	}); err != nil {
		return err
	}
	cold := db.CacheStats().Hits == hits
	rs.merged += matched
	rs.queries++
	if err := tr.do("flowdb.select_warm", func() error {
		_, _, err := db.Select(q.Locations, q.From, q.To)
		return err
	}); err != nil {
		return err
	}
	res := &flowql.Result{Op: q.Op, Merged: matched, From: q.From, To: q.To}
	if err := tr.do("flowql.operator", func() error {
		switch q.Op {
		case flowql.OpQuery:
			res.Counters = tree.Query(q.Where)
		case flowql.OpTopK:
			res.Entries = tree.TopK(q.K * 4)
			res.Entries = res.Entries[:min(q.K, len(res.Entries))]
		case flowql.OpAbove:
			res.Entries = tree.AboveX(q.X)
		case flowql.OpHHH:
			res.HHH = tree.HHH(q.Phi)
		case flowql.OpDrilldown:
			var ok bool
			if res.Entries, ok = tree.Drilldown(q.Where); !ok {
				return fmt.Errorf("drilldown: no node at %v", q.Where)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := tr.do("flowql.marshal", func() error {
		_, err := json.Marshal(res)
		return err
	}); err != nil {
		return err
	}
	if err := tr.do("flowserve.handler", func() error {
		w := httptest.NewRecorder()
		rs.qs.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/query", strings.NewReader(stmt)))
		if w.Code != 200 {
			return fmt.Errorf("handler: status %d for %q", w.Code, stmt)
		}
		return nil
	}); err != nil {
		return err
	}
	if !tr.on {
		return nil
	}
	// The handler repeats parse, a (now warm) select, the operator and the
	// encoding; what is left is the front end's own cost.
	d := map[string]int64{}
	for _, sp := range tr.spans[tr.root+1:] {
		d[sp.Name] = sp.End - sp.Start
	}
	if cold {
		rs.selectCold = append(rs.selectCold, d["flowdb.select"])
	}
	rs.handlerSelf = append(rs.handlerSelf, d["flowserve.handler"]-
		d["flowql.parse"]-d["flowdb.select_warm"]-d["flowql.operator"]-d["flowql.marshal"])
	return nil
}

// statements is the query replay of the workloads without dashboards:
// the statement mix over the replayed epochs.
func (rs *replayState) statements(seed int64, sealed int) []string {
	mix := newStatementMix(seed+1, rs.sites, alignedWindows(sealed, rs.sp.maxWindow))
	out := make([]string, rs.rc.queries)
	for i := range out {
		out[i] = mix.next()
	}
	return out
}

// run replays every epoch, then every statement (live-ops interleaves
// its dashboards with the epochs, as they run in production), then
// drains the fleet. It returns the wall clock of the whole pass.
func (rs *replayState) run(seed int64) (time.Duration, error) {
	rc := rs.rc
	frames := make([][][]byte, rc.epochs)
	for e := range frames {
		for s := range rs.sites {
			var buf []byte
			for _, r := range rs.epochRecords(e, s) {
				buf = flowsource.AppendFrame(buf, r)
			}
			frames[e] = append(frames[e], buf)
		}
	}
	perEpoch := rc.queries / rc.epochs
	start := time.Now()
	rs.tr.t0 = start
	for e := 0; e < rc.epochs; e++ {
		if err := rs.recordPath(e, frames[e]); err != nil {
			return 0, err
		}
		if err := rs.exportPath(e); err != nil {
			return 0, err
		}
		if rs.sp.dashRate > 0 {
			for i := 0; i < perEpoch; i++ {
				if err := rs.queryPath(dashboard(e*perEpoch+i, e+1, rs.sites)); err != nil {
					return 0, err
				}
			}
		}
	}
	if rs.sp.dashRate == 0 {
		for _, stmt := range rs.statements(seed, rc.epochs) {
			if err := rs.queryPath(stmt); err != nil {
				return 0, err
			}
		}
	}
	rs.tr.begin("drain")
	err := rs.tr.do("federation.drain", func() error { return rs.fleet.Drain(0) })
	rs.tr.end()
	return time.Since(start), err
}

// runReplay replays the workload untraced, then traced, and derives the
// per-layer metrics; the end-to-end run supplies the /stats counts and
// the driver's lateness.
func runReplay(sp spec, seed int64, r *e2e) (map[string]metric, error) {
	rc := replays[sp.name]
	// Untraced passes before and after the traced one: their mean is the
	// baseline the tracing overhead is measured against, so heap growth
	// and warm-up do not land on either side alone.
	pass := func(traced bool) (*replayState, time.Duration, error) {
		rs, err := newReplayState(sp, rc, r.in, traced)
		if err != nil {
			return nil, 0, err
		}
		wall, err := rs.run(seed)
		return rs, wall, err
	}
	_, off1, err := pass(false)
	if err != nil {
		return nil, err
	}
	rs, wallOn, err := pass(true)
	if err != nil {
		return nil, err
	}
	_, off2, err := pass(false)
	if err != nil {
		return nil, err
	}
	wallOff := (off1 + off2) / 2
	if err := rs.writeSpans(seed); err != nil {
		return nil, err
	}
	st := rs.tr.stages()
	var self int64
	for _, s := range st {
		self += s.ns
	}
	unattributed := 1 - float64(self)/float64(wallOn.Nanoseconds())
	if math.Abs(unattributed) > 0.10 {
		r.check(false, "trace: stage self-times cover %.1f%% of the replay's wall clock, want within 10%%",
			100*(1-unattributed))
	}

	m := map[string]metric{}
	per := func(name string, div float64) float64 {
		if s := st[name]; s != nil && div > 0 {
			return float64(s.ns) / div
		}
		return 0
	}
	mean := func(name string) float64 {
		if s := st[name]; s != nil && s.n > 0 {
			return float64(s.ns) / float64(s.n)
		}
		return 0
	}
	recs := float64(rs.records)
	fedRecs := float64(rc.epochs * rc.perSite * len(rs.sites))
	allocsPerK := func(name string) float64 {
		if s := st[name]; s != nil {
			return float64(s.allocs) / recs * 1000
		}
		return 0
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("flowsource.decode_ns_per_rec", per("flowsource.decode", recs), "ns")
	set("flowsource.decode_allocs_per_krec", allocsPerK("flowsource.decode"), "count")
	set("datastore.ingest_ns_per_rec", per("datastore.ingest", recs), "ns")
	set("datastore.ingest_allocs_per_krec", allocsPerK("datastore.ingest"), "count")
	if s := st["datastore.ingest"]; s != nil {
		set("datastore.ingest_bytes_per_rec", float64(s.bytes)/recs, "B")
	}
	set("datastore.seal_ms", mean("datastore.seal")/1e6, "ms")
	set("flowtree.sealed_nodes", float64(rs.nodes)/float64(rs.exports), "count")
	set("flowtree.encode_us", mean("flowtree.encode")/1e3, "us")
	set("flowtree.frame_bytes", float64(rs.frameBytes)/float64(rs.exports), "B")
	set("flowtree.decode_us", mean("flowtree.decode")/1e3, "us")
	set("flowtree.delta_frac", float64(rs.deltas)/float64(rs.exports), "ratio")
	wan := rs.fleet.Net.TotalStats()
	set("simnet.wan_bytes_per_epoch", float64(wan.Bytes)/float64(rc.epochs), "B")
	set("simnet.attempts_per_transfer", float64(wan.Attempts)/math.Max(1, float64(wan.Transfers)), "ratio")
	set("flowstream.end_epoch_ms", mean("flowstream.end_epoch")/1e6, "ms")
	set("flowdb.insert_batch_us", mean("flowdb.insert_batch")/1e3, "us")
	set("flowdb.view_maint_us", (mean("flowdb.insert_batch_views")-mean("flowdb.insert_batch"))/1e3, "us")
	set("flowdb.select_cold_us", meanNs(rs.selectCold)/1e3, "us")
	set("flowdb.select_warm_us", mean("flowdb.select_warm")/1e3, "us")
	set("flowdb.merged_trees_per_query", float64(rs.merged)/float64(max(1, rs.queries)), "count")
	set("flowql.parse_us", mean("flowql.parse")/1e3, "us")
	set("flowql.operator_us", mean("flowql.operator")/1e3, "us")
	set("flowql.marshal_us", mean("flowql.marshal")/1e3, "us")
	set("flowql.notify_us", mean("flowql.notify")/1e3, "us")
	set("flowserve.handler_self_us", meanNs(rs.handlerSelf)/1e3, "us")
	set("federation.ingest_ns_per_rec", per("federation.ingest", fedRecs), "ns")
	set("federation.end_epoch_ms", mean("federation.end_epoch")/1e6, "ms")
	set("federation.pending_after_drain", float64(rs.fleet.PendingExports()), "count")
	if _, ok := r.counts["federation.dropped_frames"]; !ok {
		r.counts["federation.dropped_frames"] = float64(rs.fleet.DroppedFrames())
	}
	for _, k := range []string{"flowsource.peak_queued", "flowsource.dropped", "flowsource.truncated",
		"flowserve.shed", "flowserve.rate_limited", "flowserve.disconnects", "federation.dropped_frames",
		"flowdb.coalesced"} {
		set(k, r.counts[k], "count")
	}
	set("flowdb.cache_hit_frac", r.counts["flowdb.cache_hit_frac"], "ratio")
	set("driver.lateness_p99_ms", newDist(r.late).pct(0.99), "ms")
	set("trace.overhead_frac", float64(wallOn-wallOff)/float64(wallOff), "ratio")
	set("trace.unattributed_frac", unattributed, "ratio")
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m[k] = metric{0, v.Unit}
		}
	}
	return m, nil
}

func meanNs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

// writeSpans writes the traced replay's spans, one JSON object per line,
// under the build directory of the checkout.
func (rs *replayState) writeSpans(seed int64) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", rs.sp.name, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range rs.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
