package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"megadata/internal/flowserve"
	"megadata/internal/flowsource"
	"megadata/internal/flowstream"
	"megadata/internal/workload"
)

// reportServe measures what the network face costs: the same pre-rendered
// framed epoch is decoded once through a loopback TCP connection into the
// ingest listener and once via in-process ConsumeStream, records/sec each
// (median of five). Their ratio is the within-run gate — loopback ingest
// must hold at least 25% of in-process throughput, a floor that compares
// the two paths on the same runner so machine speed cancels out. The
// query leg serves one epoch of data and hammers POST /query from
// concurrent keep-alive clients (the memo-hit path a dashboard fleet
// exercises), reporting queries/sec. The gate holds both the socket-ingest
// and the query leg.
func reportServe() (baseline, error) {
	const records = 200000
	const queries = 1500
	const clients = 6
	fmt.Printf("## Serve — network ingest + FlowQL-over-HTTP throughput (GOMAXPROCS=%d, %d records)\n\n",
		runtime.GOMAXPROCS(0), records)

	render := func() ([]byte, error) {
		gen, err := flowsource.NewGenerator(flowsource.GenConfig{
			Workload: workload.FlowConfig{Seed: 7, Start: epoch0},
			Records:  records,
			Epoch:    time.Minute,
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := gen.WriteEpoch(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	wire, err := render()
	if err != nil {
		return nil, err
	}
	newSys := func() (*flowstream.System, error) {
		return flowstream.New(flowstream.Config{
			Sites:      []string{"west"},
			TreeBudget: 4096,
			Epoch:      time.Minute,
			Start:      epoch0,
			Source:     &flowsource.Config{},
		})
	}

	// Socket leg: dial the ingest listener, stream the rendered epoch,
	// and clock until the source has drained every record into the store.
	socket := func() (float64, error) {
		sys, err := newSys()
		if err != nil {
			return 0, err
		}
		srv, err := sys.Serve(flowstream.ServeConfig{})
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		conn, err := net.Dial("tcp", srv.IngestAddr().String())
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := flowserve.WritePreamble(conn, "west"); err != nil {
			return 0, err
		}
		if _, err := conn.Write(wire); err != nil {
			return 0, err
		}
		conn.Close()
		for srv.IngestStats().Active > 0 {
			time.Sleep(100 * time.Microsecond)
		}
		if err := sys.DrainSource(); err != nil {
			return 0, err
		}
		elapsed := time.Since(start).Seconds()
		if got := sys.SourceStats().Delivered; got != records {
			return 0, fmt.Errorf("socket leg delivered %d of %d records", got, records)
		}
		return float64(records) / elapsed, nil
	}

	// In-process leg: the same bytes through ConsumeStream, no socket.
	inproc := func() (float64, error) {
		sys, err := newSys()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := sys.ConsumeStream("west", bytes.NewReader(wire)); err != nil {
			return 0, err
		}
		if err := sys.DrainSource(); err != nil {
			return 0, err
		}
		return float64(records) / time.Since(start).Seconds(), nil
	}

	// Query leg: one sealed epoch behind the HTTP front end, concurrent
	// keep-alive clients asking the same question — the memo-hit path.
	query := func() (float64, error) {
		sys, err := newSys()
		if err != nil {
			return 0, err
		}
		srv, err := sys.Serve(flowstream.ServeConfig{RatePerSec: 1e9})
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		if err := sys.ConsumeStream("west", bytes.NewReader(wire)); err != nil {
			return 0, err
		}
		if err := srv.EndEpoch(); err != nil {
			return 0, err
		}
		url := "http://" + srv.QueryAddr().String() + "/query"
		const stmt = `SELECT TOPK(10) AT west FROM ALL`
		var wg sync.WaitGroup
		errs := make([]error, clients)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := &http.Client{}
				for i := 0; i < queries/clients; i++ {
					resp, err := client.Post(url, "text/plain", strings.NewReader(stmt))
					if err != nil {
						errs[c] = err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs[c] = fmt.Errorf("status %d", resp.StatusCode)
						resp.Body.Close()
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		for c, err := range errs {
			if err != nil {
				return 0, fmt.Errorf("query client %d: %w", c, err)
			}
		}
		return float64(clients*(queries/clients)) / elapsed, nil
	}

	runs, err := passes(5, socket, inproc, query)
	if err != nil {
		return nil, err
	}
	sockMed, inMed, qpsMed := median(runs[0]), median(runs[1]), median(runs[2])
	ratio := sockMed / inMed
	fmt.Println("| leg | throughput |")
	fmt.Println("|---|---|")
	fmt.Printf("| ingest, loopback socket | %.0f records/s |\n", sockMed)
	fmt.Printf("| ingest, in-process | %.0f records/s (socket holds %.0f%%) |\n", inMed, ratio*100)
	fmt.Printf("| POST /query, %d clients | %.0f queries/s |\n", clients, qpsMed)
	b := baseline{"": {{
		"records": records, "queries": queries, "clients": clients,
		"socket_records_per_sec": sockMed, "inproc_records_per_sec": inMed, "net_ratio": ratio, "query_qps": qpsMed,
	}}}
	if ratio < 0.25 {
		return b, fmt.Errorf("loopback ingest fell to %.0f%% of in-process throughput (floor 25%%)", ratio*100)
	}
	return b, nil
}
