package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"megadata/internal/federation"
	"megadata/internal/flow"
	"megadata/internal/flowserve"
	"megadata/internal/flowsource"
	"megadata/internal/flowstream"
	"megadata/internal/simnet"
)

// queryRate lifts flowserve's per-client token bucket: every dashboard
// and load connection arrives from the one loopback address, so the
// default 50 q/s per client would meter the benchmark, not the server.
const queryRate = 1e6

// runHarness is the system under test, in its own process. It is wired the
// way cmd/flowserved wires flowstream (or, with -fleet, serves a
// federation.Fleet's central DB through the same flowserve front end),
// leaves every other knob at its default, and seals epochs when the driver
// says so on stdin instead of on a ticker:
//
//	seal       seal whatever has arrived (flowstream)
//	seal N     wait until N records were ingested, then seal (fleet)
//	drain      Fleet.Drain, then report pending frames
//	quit       drain-then-close and exit
//
// It prints "ready <ingest addr> <http addr> <locations>" once serving,
// "sealed <epoch>" after each seal and "drained <pending>" after a drain.
// The harness never sees the workload seed.
func runHarness(args []string) error {
	fs := flag.NewFlagSet("harness", flag.ContinueOnError)
	sites := fs.String("sites", "west", "comma-separated site names")
	budget := fs.Int("budget", 4096, "Flowtree node budget per site")
	fleet := fs.Bool("fleet", false, "serve a 16x16 federation.Fleet instead of flowstream")
	if err := fs.Parse(args); err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	say := func(format string, a ...any) {
		fmt.Fprintf(out, format+"\n", a...)
		out.Flush()
	}
	if *fleet {
		return runFleetHarness(say)
	}
	sys, err := flowstream.New(flowstream.Config{
		Sites:      strings.Split(*sites, ","),
		TreeBudget: *budget,
		Source:     &flowsource.Config{},
	})
	if err != nil {
		return err
	}
	srv, err := sys.Serve(flowstream.ServeConfig{RatePerSec: queryRate})
	if err != nil {
		return err
	}
	say("ready %s %s %s", srv.IngestAddr(), srv.QueryAddr(), *sites)
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch cmd := strings.Fields(in.Text()); {
		case len(cmd) == 1 && cmd[0] == "seal":
			if err := srv.EndEpoch(); err != nil {
				return err
			}
			say("sealed %d", sys.Epoch())
		case len(cmd) == 1 && cmd[0] == "quit":
			return srv.Close()
		default:
			return fmt.Errorf("harness: unknown command %q", in.Text())
		}
	}
	return srv.Close()
}

// fleetHarness feeds a federation.Fleet from one framed TCP stream: each
// record goes to the leaf its flow-key hash picks.
type fleetHarness struct {
	fl     *federation.Fleet
	leaves []simnet.SiteID

	mu        sync.Mutex
	pend      map[simnet.SiteID][]flow.Record
	npend     int
	ingested  uint64
	frames    uint64
	truncated uint64
	err       error
}

// fleetFlush is how many decoded records the fleet harness gathers before
// handing each leaf its share through Fleet.Ingest.
const fleetFlush = 4096

func runFleetHarness(say func(string, ...any)) error {
	fl, err := federation.NewFleet(federation.FleetConfig{
		Fanout:       []int{16, 16},
		LeafBudget:   256,
		AggBudget:    2048,
		DeltaExports: true,
		// The link plan's seed is part of the system's configuration, not
		// of the workload: it fixes which links are lossy.
		Plan: simnet.LinkPlan{Seed: 1, Classes: federation.FaultClasses()},
	})
	if err != nil {
		return err
	}
	h := &fleetHarness{fl: fl, pend: map[simnet.SiteID][]flow.Record{}}
	for _, n := range fl.Leaves() {
		h.leaves = append(h.leaves, n.ID)
	}
	var locs []string
	for _, n := range fl.Root.Children {
		locs = append(locs, string(n.ID))
	}
	qs, err := flowserve.NewQuery(flowserve.QueryConfig{
		DB: fl.DB, RatePerSec: queryRate,
		Extra: func() any { return h.stats() },
	})
	if err != nil {
		return err
	}
	iln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: qs.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(hln)
	go h.accept(iln)
	defer func() {
		iln.Close()
		qs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()
	say("ready %s %s %s", iln.Addr(), hln.Addr(), strings.Join(locs, ","))
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd := strings.Fields(in.Text())
		switch {
		case len(cmd) == 2 && cmd[0] == "seal":
			n, err := strconv.ParseUint(cmd[1], 10, 64)
			if err != nil {
				return err
			}
			if err := h.waitIngested(n); err != nil {
				return err
			}
			if err := fl.EndEpoch(); err != nil {
				return err
			}
			say("sealed %d %d", fl.Epoch(), centralFlows(fl))
		case len(cmd) == 1 && cmd[0] == "drain":
			if err := fl.Drain(0); err != nil {
				return err
			}
			say("drained %d %d", fl.PendingExports(), centralFlows(fl))
		case len(cmd) == 1 && cmd[0] == "quit":
			return nil
		default:
			return fmt.Errorf("harness: unknown command %q", in.Text())
		}
	}
	return nil
}

// centralFlows is the fleet's answer on EndEpoch return: the exact Flows
// total of every row central holds, what SELECT QUERY FROM ALL reports.
func centralFlows(fl *federation.Fleet) uint64 {
	var n uint64
	for _, row := range fl.DB.Rows() {
		n += row.Tree.Total().Flows
	}
	return n
}

func (h *fleetHarness) accept(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go h.consume(c)
	}
}

func (h *fleetHarness) consume(c net.Conn) {
	defer c.Close()
	fr := flowsource.NewFrameReader(c)
	for {
		rec, err := fr.Next()
		if err != nil {
			h.mu.Lock()
			if !errors.Is(err, io.EOF) && h.err == nil {
				h.err = err
			}
			h.truncated = fr.Truncated()
			h.flushLocked()
			h.mu.Unlock()
			return
		}
		h.mu.Lock()
		h.frames++
		leaf := h.leaves[rec.Key.Hash()%uint64(len(h.leaves))]
		h.pend[leaf] = append(h.pend[leaf], rec)
		h.npend++
		if h.npend >= fleetFlush {
			h.flushLocked()
		}
		h.mu.Unlock()
	}
}

// flushLocked hands every leaf its gathered records.
func (h *fleetHarness) flushLocked() {
	for leaf, recs := range h.pend {
		if len(recs) == 0 {
			continue
		}
		if err := h.fl.Ingest(leaf, recs); err != nil && h.err == nil {
			h.err = err
		}
		h.ingested += uint64(len(recs))
		h.pend[leaf] = recs[:0:0]
	}
	h.npend = 0
}

// waitIngested blocks until n records have reached the fleet's leaves,
// flushing a partial gather once the stream has delivered them all.
func (h *fleetHarness) waitIngested(n uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.ingested < n && h.err == nil {
		if h.frames >= n {
			h.flushLocked()
			continue
		}
		h.mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		h.mu.Lock()
	}
	return h.err
}

func (h *fleetHarness) stats() any {
	h.mu.Lock()
	ing, frames, trunc := h.ingested, h.frames, h.truncated
	h.mu.Unlock()
	st := h.fl.Net.TotalStats()
	return map[string]any{
		"epoch": h.fl.Epoch(),
		"source": map[string]uint64{
			"Frames": frames, "Delivered": ing, "Dropped": 0, "Truncated": trunc,
		},
		"fleet": map[string]any{
			"pending":         h.fl.PendingExports(),
			"dropped_frames":  h.fl.DroppedFrames(),
			"dropped_exports": h.fl.DroppedExports(),
			"wan_bytes":       st.Bytes,
			"attempts":        st.Attempts,
			"transfers":       st.Transfers,
		},
	}
}
