package main

import (
	"fmt"
	"runtime"
	"time"

	"megadata/internal/federation"
	"megadata/internal/flow"
	"megadata/internal/simnet"
	"megadata/internal/workload"
)

// reportFed measures multi-level federation turnaround — EndEpoch wall time
// for a whole fleet with the WAN paced to occupy real time — across a
// sites x levels grid, serial (one export worker per level) vs pipelined.
// The serial path pays every uplink's latency+transfer in sequence, so it
// grows linearly with fleet size; the pipelined path is bounded by the
// slowest hop plus shared merge CPU, which is the scale-out claim the
// federation layer makes. The gate holds the pipelined turnaround.
func reportFed() (baseline, error) {
	const recordsPerLeaf = 50
	fmt.Printf("## Fed — multi-level federation epoch turnaround, pipelined vs serial (GOMAXPROCS=%d, paced WAN)\n\n",
		runtime.GOMAXPROCS(0))
	link := simnet.Link{BytesPerSecond: 10e6, Latency: 2 * time.Millisecond}
	// One record set per fleet size, shared by every cell of that row:
	// generator construction dominates setup cost and measures nothing.
	recordSets := map[int][][]flow.Record{}
	records := func(sites int) ([][]flow.Record, error) {
		if recs, ok := recordSets[sites]; ok {
			return recs, nil
		}
		recs := make([][]flow.Record, sites)
		for i := range recs {
			g, err := workload.NewFlowGen(workload.FlowConfig{Seed: int64(i + 1), Skew: 1.2})
			if err != nil {
				return nil, err
			}
			recs[i] = g.Records(recordsPerLeaf)
		}
		recordSets[sites] = recs
		return recs, nil
	}
	// measure returns the best of three epochs in EndEpochs per second.
	measure := func(sites, levels, workers int) (float64, error) {
		fanout, err := federation.FanoutFor(sites, levels)
		if err != nil {
			return 0, err
		}
		fl, err := federation.NewFleet(federation.FleetConfig{
			Fanout:        fanout,
			LeafBudget:    256,
			AggBudget:     2048,
			ExportWorkers: workers,
			Link:          link,
		})
		if err != nil {
			return 0, err
		}
		fl.Net.SetRealtime(1.0)
		recs, err := records(sites)
		if err != nil {
			return 0, err
		}
		leaves := fl.Leaves()
		return fastest(3, func() (float64, error) {
			for i, leaf := range leaves {
				if err := fl.Ingest(leaf.ID, recs[i]); err != nil {
					return 0, err
				}
			}
			start := time.Now()
			if err := fl.EndEpoch(); err != nil {
				return 0, err
			}
			return 1 / time.Since(start).Seconds(), nil
		})
	}
	var entries []cell
	fmt.Println("| sites | levels | serial EndEpoch | pipelined EndEpoch | speedup |")
	fmt.Println("|---|---|---|---|---|")
	for _, sites := range []int{64, 256} {
		for _, levels := range []int{2, 3} {
			serial, err := measure(sites, levels, 1)
			if err != nil {
				return nil, err
			}
			piped, err := measure(sites, levels, 0)
			if err != nil {
				return nil, err
			}
			fmt.Printf("| %d | %d | %v | %v | %.2fx |\n", sites, levels, perOp(serial), perOp(piped), piped/serial)
			entries = append(entries, cell{
				"sites": float64(sites), "levels": float64(levels),
				"serial_epochs_per_sec": serial, "pipelined_epochs_per_sec": piped, "speedup": piped / serial,
			})
		}
	}
	return baseline{"": {{"records_per_leaf": recordsPerLeaf}}, "entries": entries}, nil
}
