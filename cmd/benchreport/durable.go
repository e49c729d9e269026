package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"megadata/internal/flow"
	"megadata/internal/flowsource"
	"megadata/internal/storage/disk"
	"megadata/internal/workload"
)

// reportDurable measures what crash safety costs on the streaming ingest
// leg: the same framed trace is consumed once with no journal and once
// with every record appended to a write-ahead log (fsync'd every
// sync-every records) before it reaches the store — the durable
// configuration a WAL'd flowstream site runs. Best of five interleaved
// passes per cadence (the fsync cost is at the mercy of the host's page
// cache, so a single pass is too noisy to gate on).
//
// The experiment runs with at least two procs even on a single-CPU host:
// a blocking fsync strands a lone P in the syscall until sysmon retakes
// it — milliseconds per sync in which neither the decoder nor the sink
// runs — so single-proc the WAL pays its full fsync latency on the
// critical path (~0.7x) while any second proc lets the fsync overlap
// ingest (~0.95x). A durable deployment needs GOMAXPROCS >= 2; the gate
// measures that supported configuration. The WAL'd path must hold at least 0.8x of the
// in-memory path within the run; the gate holds the WAL'd throughput.
func reportDurable() (baseline, error) {
	const records = 500_000
	const maxBatch = 4096
	const depth = 4
	if procs := runtime.GOMAXPROCS(0); procs < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(procs)
	}
	fmt.Printf("## Durable — WAL'd streaming ingest vs in-memory (GOMAXPROCS=%d, %d records)\n\n",
		runtime.GOMAXPROCS(0), records)
	g, err := workload.NewFlowGen(workload.FlowConfig{Seed: 42, Skew: 1.2})
	if err != nil {
		return nil, err
	}
	recs := g.Records(records)
	var wire []byte
	for _, r := range recs {
		wire = flowsource.AppendFrame(wire, r)
	}
	// consume runs one full pass of the trace through a fresh source and
	// store, returning records per second.
	consume := func(journal func(string, []flow.Record) error) (float64, error) {
		store, err := newStore(1)
		if err != nil {
			return 0, err
		}
		src, err := flowsource.New(flowsource.Config{
			MaxBatch:     maxBatch,
			ChannelDepth: depth,
			Journal:      journal,
			Sink: func(_ string, parts [][]flow.Record) error {
				for _, part := range parts {
					if err := store.IngestFlowBatch("router", part); err != nil {
						return err
					}
				}
				return nil
			},
		})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := src.Consume("edge", bytes.NewReader(wire)); err != nil {
			return 0, err
		}
		if err := src.Drain(); err != nil {
			return 0, err
		}
		rps := float64(records) / time.Since(start).Seconds()
		if err := src.Close(); err != nil {
			return 0, err
		}
		if st := src.Stats(); st.Delivered != records || st.JournalErrors != 0 {
			return 0, fmt.Errorf("durable experiment: delivered %d of %d records, %d journal errors",
				st.Delivered, records, st.JournalErrors)
		}
		return rps, nil
	}
	var entries []cell
	fmt.Println("| fsync every | in-memory rec/s | WAL rec/s | WAL/mem |")
	fmt.Println("|---|---|---|---|")
	var tooSlow bool
	for _, syncEvery := range []int{256, 4096} {
		walPass := func() (float64, error) {
			dir, err := os.MkdirTemp("", "benchwal")
			if err != nil {
				return 0, err
			}
			ws, err := disk.OpenWALSet(nil, dir, syncEvery)
			if err != nil {
				return 0, err
			}
			rps, err := consume(ws.Append)
			closeErr := ws.Close()
			os.RemoveAll(dir)
			if err != nil {
				return 0, err
			}
			return rps, closeErr
		}
		runs, err := passes(5, func() (float64, error) { return consume(nil) }, walPass)
		if err != nil {
			return nil, err
		}
		memBest, walBest := slices.Max(runs[0]), slices.Max(runs[1])
		ratio := walBest / memBest
		fmt.Printf("| %d | %.0f | %.0f | %.2fx |\n", syncEvery, memBest, walBest, ratio)
		if ratio < 0.8 {
			tooSlow = true
		}
		entries = append(entries, cell{
			"sync_every": float64(syncEvery), "mem_rec_per_sec": memBest, "wal_rec_per_sec": walBest, "ratio": ratio,
		})
	}
	b := baseline{"": {{"records": records, "max_batch": maxBatch}}, "entries": entries}
	if tooSlow {
		return b, errors.New("WAL'd streaming ingest fell below 0.8x of the in-memory path")
	}
	return b, nil
}
