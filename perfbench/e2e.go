package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowsource"
)

// setupReps is how many times a run launches the harness (with its
// history load) to time set-up; the last launch serves the run.
const setupReps = 3

// heavyFlows is how many of the run's top host pairs by bytes the
// fidelity metric checks.
const heavyFlows = 100

// e2e is one end-to-end run's measurements.
type e2e struct {
	sp   spec
	in   *inputs
	led  *ledger
	tal  tally
	fail []string // failed correctness checks

	setup []float64
	// Ingest-side samples, one per ingest phase (query-storm loads its
	// history once per set-up); the reported values are their medians,
	// and freshness pools every phase's answers.
	ingestRate, cpuPerKrec []float64
	fresh                  []float64
	queryLat, late         []float64
	qps, cpuPerQuery       float64
	rss, heavy             float64
	sealed                 int
	counts                 map[string]float64
	central                uint64
}

func (r *e2e) check(ok bool, format string, a ...any) {
	r.tal.attempted.Add(1)
	if !ok {
		err := fmt.Errorf(format, a...)
		r.fail = append(r.fail, err.Error())
		r.tal.fail(1, err)
	}
}

// checkedQuery runs a checking query; a failure fails the run's checks.
func (r *e2e) checkedQuery(c *client, stmt string) (*result, error) {
	res, err := c.query(stmt)
	r.tal.op(err)
	if err != nil {
		r.fail = append(r.fail, fmt.Sprintf("%s: %v", stmt, err))
	}
	return res, err
}

// runE2E runs one workload against the harness with tracing off.
func runE2E(sp spec, seed int64, seconds float64) (*e2e, error) {
	in, err := genInputs(sp, seed)
	if err != nil {
		return nil, err
	}
	r := &e2e{sp: sp, in: in, led: newLedger(), counts: map[string]float64{}}
	run := time.Duration(seconds * float64(time.Second))
	part := func(f float64) time.Duration { return time.Duration(f * float64(run)) }

	var hist [][]byte
	if sp.historyEpochs > 0 {
		hist = r.encodeHistory()
	}
	var h *harness
	t0 := time.Now()
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if h, err = startHarness(sp); err != nil {
			return nil, err
		}
		if hist != nil {
			if err := r.loadHistory(h, hist); err != nil {
				h.kill()
				return nil, err
			}
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			if err := h.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer h.kill()

	phase("set-up", t0)

	t0 = time.Now()
	locs := h.locs
	if !sp.fleet {
		locs = sp.sites
	}
	mixLocs := locs
	if sp.queryLocs > 0 {
		mixLocs = locs[:sp.queryLocs]
	}
	switch {
	case sp.fleet:
		err = r.fleetIngest(h)
	case hist == nil:
		err = r.streamIngest(h, part(sp.ingest))
	}
	if err != nil {
		return nil, err
	}

	phase("ingest", t0)

	t0 = time.Now()
	mix := newStatementMix(seed+1, mixLocs, alignedWindows(r.sealed, sp.maxWindow))
	if sp.openRate > 0 {
		lat, late := openLoop(h.base, queryConns, sp.openRate, part(sp.open),
			func(int) string { return mix.next() }, &r.tal)
		r.queryLat, r.late = lat, append(r.late, late...)
	}
	next := mix.next
	if sp.dashRate > 0 {
		i := 0
		next = func() string { i++; return dashboard(i, r.sealed, sp.sites) }
	}
	r.qps, r.cpuPerQuery = closedLoop(h, queryConns, part(sp.closed), next, &r.tal)
	phase("queries", t0)

	// Peak memory of the workload itself: the checks below merge whole
	// histories, a one-off the workload never asks for.
	r.rss = h.hwmMiB()
	t0 = time.Now()
	c := newClient(h.base)
	defer c.close()
	if err := r.checks(c, locs); err != nil {
		return nil, err
	}
	if err := h.stop(); err != nil {
		return nil, err
	}
	phase("checks and close", t0)
	return r, nil
}

// phase notes on stderr how long a part of the run took.
func phase(name string, since time.Time) {
	fmt.Fprintf(os.Stderr, "perfbench: %s took %.2fs\n", name, time.Since(since).Seconds())
}

// encodeHistory frames query-storm's history: epoch e, site s carries the
// pool's records [(e*sites+s)*perSite, +perSite).
func (r *e2e) encodeHistory() [][]byte {
	sp, recs := r.sp, r.in.recs
	var out [][]byte
	for e := 0; e < sp.historyEpochs; e++ {
		for s, site := range sp.sites {
			lo := ((e*len(sp.sites) + s) * sp.historyPerSite) % len(recs)
			batch := recs[lo : lo+sp.historyPerSite]
			var buf []byte
			for _, rec := range batch {
				buf = flowsource.AppendFrame(buf, rec)
			}
			out = append(out, buf)
			r.led.add(site, batch)
		}
	}
	return out
}

// loadHistory sends each epoch's records, waits until /stats shows the
// source took every frame, and seals — so the FlowDB is the same on every
// run of a seed. It doubles as query-storm's ingest measurement.
func (r *e2e) loadHistory(h *harness, hist [][]byte) error {
	sp := r.sp
	c := newClient(h.base)
	defer c.close()
	p, err := startProbe(h.base, nil)
	if err != nil {
		return err
	}
	defer p.stop()
	// One router connection per site, written in turn.
	conns := make([]net.Conn, len(sp.sites))
	for s, site := range sp.sites {
		if conns[s], err = dialSite(h.ingest, site); err != nil {
			return err
		}
		defer conns[s].Close()
	}
	log := &sendLog{}
	cpu0, t0 := h.cpu(), time.Now()
	for e := 0; e < sp.historyEpochs; e++ {
		for s, conn := range conns {
			log.add(uint64(sp.historyPerSite), time.Now())
			if _, err := conn.Write(hist[e*len(sp.sites)+s]); err != nil {
				return err
			}
		}
		if err := waitFrames(c, log.total(), 30*time.Second); err != nil {
			return err
		}
		if err := h.send("seal"); err != nil {
			return err
		}
		if _, err := h.expect("sealed", 30*time.Second); err != nil {
			return err
		}
	}
	done, err := p.waitFlows(log.total(), 30*time.Second)
	if err != nil {
		return err
	}
	r.sealed = sp.historyEpochs
	r.ingestSample(h, log.total(), cpu0, t0, done)
	return r.ingestFreshness(&p.answers, log)
}

// ingestSample records one ingest phase's rate and CPU cost: n records
// sent from t0 until the last of them was answerable at done.
func (r *e2e) ingestSample(h *harness, n uint64, cpu0 time.Duration, t0, done time.Time) {
	r.ingestRate = append(r.ingestRate, float64(n)/done.Sub(t0).Seconds())
	r.cpuPerKrec = append(r.cpuPerKrec, ms(h.cpu()-cpu0)/(float64(n)/1000))
}

// ingestFreshness matches every answer the probe saw to the send log.
func (r *e2e) ingestFreshness(a *answers, log *sendLog) error {
	fresh, err := a.freshness(log)
	r.fresh = append(r.fresh, fresh...)
	return err
}

// streamIngest is firehose's and live-ops' ingest phase, in the
// workload's number of bursts: one router connection at the workload's
// rate (0 = as fast as the socket takes it), seals on a fixed schedule
// and — for live-ops — dashboards polled at a fixed rate over one
// connection. Each burst ends when everything sent is answerable.
func (r *e2e) streamIngest(h *harness, dur time.Duration) error {
	sp := r.sp
	p, err := startProbe(h.base, sp.sites)
	if err != nil {
		return err
	}
	defer p.stop()
	conn, err := dialSite(h.ingest, sp.sites[0])
	if err != nil {
		return err
	}
	defer conn.Close()
	c := newClient(h.base)
	defer c.close()
	log := &sendLog{}
	var sealed atomic.Int64
	chunks := 0
	for b := 0; b < sp.bursts; b++ {
		if err := r.burst(h, c, &p.answers, conn, log, &chunks, &sealed, dur/time.Duration(sp.bursts)); err != nil {
			return err
		}
	}
	r.sealed = int(sealed.Load())
	r.led.addStream(r.in, chunks, sp.sites[0])
	return r.ingestFreshness(&p.answers, log)
}

// burst streams for dur from stream chunk *chunks on, then settles: once
// the source holds every frame, one more seal makes the last record
// answerable.
func (r *e2e) burst(h *harness, c *client, a *answers, conn net.Conn, log *sendLog, chunks *int,
	sealed *atomic.Int64, dur time.Duration) error {
	sp := r.sp
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		sendErr  error
		sealErr  error
		lateMu   sync.Mutex
		dashLat  []float64
		dashLate []float64
	)
	noteLate := func(d time.Duration) {
		lateMu.Lock()
		r.late = append(r.late, ms(d))
		lateMu.Unlock()
	}
	first, sent0 := *chunks, log.total()
	cpu0, start := h.cpu(), time.Now()
	wg.Add(1)
	go func() { // router
		defer wg.Done()
		for i := first; !stop.Load(); i++ {
			if sp.rate > 0 {
				noteLate(sleepUntil(start.Add(time.Duration(float64((i-first)*chunkRecs) / sp.rate * float64(time.Second)))))
			}
			buf, recs := r.in.chunk(i)
			log.add(uint64(len(recs)), time.Now())
			if _, err := conn.Write(buf); err != nil {
				sendErr = err
				return
			}
			*chunks = i + 1
		}
	}()
	wg.Add(1)
	go func() { // sealer: open loop on the wall clock
		defer wg.Done()
		for k := 1; ; k++ {
			due := start.Add(time.Duration(k) * sp.sealEvery)
			if due.After(start.Add(dur)) {
				return
			}
			noteLate(sleepUntil(due))
			if err := h.send("seal"); err != nil {
				sealErr = err
				return
			}
			if _, err := h.expect("sealed", 30*time.Second); err != nil {
				sealErr = err
				return
			}
			sealed.Add(1)
		}
	}()
	if sp.dashRate > 0 {
		// Dashboards start once an epoch is sealed, so every trailing
		// window has data to answer from.
		for sealed.Load() == 0 && time.Since(start) < dur {
			time.Sleep(time.Millisecond)
		}
		dashLat, dashLate = openLoop(h.base, 1, sp.dashRate, dur-time.Since(start),
			func(i int) string { return dashboard(i, int(sealed.Load()), sp.sites) }, &r.tal)
	}
	time.Sleep(time.Until(start.Add(dur)))
	stop.Store(true)
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	if sealErr != nil {
		return sealErr
	}
	r.queryLat, r.late = append(r.queryLat, dashLat...), append(r.late, dashLate...)
	if err := waitFrames(c, log.total(), 30*time.Second); err != nil {
		return err
	}
	if err := h.send("seal"); err != nil {
		return err
	}
	if _, err := h.expect("sealed", 30*time.Second); err != nil {
		return err
	}
	sealed.Add(1)
	done, err := a.waitFlows(log.total(), 30*time.Second)
	if err != nil {
		return err
	}
	r.ingestSample(h, log.total()-sent0, cpu0, start, done)
	return nil
}

// fleetSegment is how many epochs make one fleet ingest sample.
const fleetSegment = 25

// fleetIngest sends the fleet's epochs back to back over one connection:
// each epoch's records, then "seal N" (the harness seals once N records
// reached the leaves), waiting for the seal before the next epoch; then
// Fleet.Drain re-ships whatever the lossy links still hold.
func (r *e2e) fleetIngest(h *harness) error {
	sp := r.sp
	conn, err := dialSite(h.ingest, "")
	if err != nil {
		return err
	}
	defer conn.Close()
	var ans answers
	// ack reads "<word> <n> <central flows>", the answer on return.
	ack := func(word string) (int, error) {
		line, err := h.expect(word, 60*time.Second)
		if err != nil {
			return 0, err
		}
		var n int
		var flows uint64
		if _, err := fmt.Sscanf(line, word+" %d %d", &n, &flows); err != nil {
			return 0, fmt.Errorf("harness: bad %s line %q", word, line)
		}
		ans.record(time.Now(), flows)
		return n, nil
	}
	log := &sendLog{}
	perEpoch := sp.perEpoch / chunkRecs
	cpu0, start := h.cpu(), time.Now()
	seg0, segCPU, segStart := uint64(0), cpu0, start
	for e := 0; e < sp.epochs; e++ {
		for i := e * perEpoch; i < (e+1)*perEpoch; i++ {
			buf, recs := r.in.chunk(i)
			log.add(uint64(len(recs)), time.Now())
			if _, err := conn.Write(buf); err != nil {
				return err
			}
		}
		if err := h.send(fmt.Sprintf("seal %d", log.total())); err != nil {
			return err
		}
		if _, err := ack("sealed"); err != nil {
			return err
		}
		// The rate and CPU cost are medians over segments of the epochs,
		// each ending when its last seal returned.
		if (e+1)%fleetSegment == 0 && e+1 < sp.epochs {
			r.ingestSample(h, log.total()-seg0, segCPU, segStart, time.Now())
			seg0, segCPU, segStart = log.total(), h.cpu(), time.Now()
		}
	}
	if err := h.send("drain"); err != nil {
		return err
	}
	pending, err := ack("drained")
	if err != nil {
		return err
	}
	r.check(pending == 0, "fleet: %d frames pending after Drain", pending)
	r.sealed = sp.epochs
	done, err := ans.waitFlows(log.total(), 0)
	if err != nil {
		return err
	}
	r.led.addStream(r.in, sp.epochs*perEpoch, "fleet")
	r.ingestSample(h, log.total()-seg0, segCPU, segStart, done)
	return r.ingestFreshness(&ans, log)
}

// checks verifies the central answers against the driver's ledger, the
// /stats ledgers, and measures heavy-flow attribution.
func (r *e2e) checks(c *client, locs []string) error {
	// Exact totals per site, whatever the budget.
	for site, want := range r.led.site {
		stmt := "SELECT QUERY AT " + site + " FROM ALL"
		if r.sp.fleet {
			stmt = "SELECT QUERY FROM ALL"
		}
		res, err := r.checkedQuery(c, stmt)
		if err != nil {
			continue
		}
		got := flow.Counters{Packets: res.Counters.Packets, Bytes: res.Counters.Bytes, Flows: res.Counters.Flows}
		r.central += got.Flows
		r.check(got == want, "%s: central %+v, sent %+v", stmt, got, want)
	}
	// Sent records are operations too: any not at central failed.
	sent := r.led.total().Flows
	r.tal.attempted.Add(int64(sent))
	if r.central < sent {
		r.tal.fail(int64(sent-r.central), fmt.Errorf("%d records missing at central", sent-r.central))
	}

	st, err := c.stats()
	if err != nil {
		return err
	}
	src := st.Extra.Source
	r.check(src.Frames == src.Delivered+src.Dropped, "source ledger: frames %d != delivered %d + dropped %d",
		src.Frames, src.Delivered, src.Dropped)
	r.check(src.Dropped == 0 && src.Truncated == 0, "source dropped %d, truncated %d records", src.Dropped, src.Truncated)
	q := st.Query
	r.check(q.RateLimited == 0 && q.Shed == 0 && q.BadRequests == 0,
		"queries refused: rate-limited %d, shed %d, bad %d", q.RateLimited, q.Shed, q.BadRequests)
	r.check(st.Extra.Ingest.Disconnects == 0, "ingest disconnects: %d", st.Extra.Ingest.Disconnects)
	if f := st.Extra.Fleet; f != nil {
		r.check(f.Pending == 0, "fleet: %d frames pending", f.Pending)
		r.counts["federation.dropped_frames"] = float64(f.DroppedFrames)
	}
	r.counts["flowsource.peak_queued"] = float64(src.PeakQueued)
	r.counts["flowsource.dropped"] = float64(src.Dropped)
	r.counts["flowsource.truncated"] = float64(src.Truncated)
	r.counts["flowserve.shed"] = float64(q.Shed)
	r.counts["flowserve.rate_limited"] = float64(q.RateLimited)
	r.counts["flowserve.disconnects"] = float64(st.Extra.Ingest.Disconnects)
	hm := st.Cache.Hits + st.Cache.Misses
	r.counts["flowdb.cache_hit_frac"] = float64(st.Cache.Hits) / math.Max(1, float64(hm))
	r.counts["flowdb.coalesced"] = float64(st.Cache.Coalesced)

	// Heavy-flow fidelity: central bytes over exact bytes for the top
	// host pairs.
	at := ""
	if !r.sp.fleet {
		at = " AT " + strings.Join(locs, ", ")
	}
	var exact, got float64
	for _, hp := range r.led.top(heavyFlows) {
		stmt := fmt.Sprintf("SELECT QUERY%s FROM ALL WHERE src = %s/32 AND dst = %s/32", at, hp.src, hp.dst)
		res, err := r.checkedQuery(c, stmt)
		if err != nil {
			continue
		}
		exact += float64(hp.bytes)
		got += float64(res.Counters.Bytes)
		r.check(res.Counters.Bytes <= hp.bytes, "%s: central %d bytes exceeds exact %d", stmt, res.Counters.Bytes, hp.bytes)
	}
	r.heavy = got / exact
	return nil
}
