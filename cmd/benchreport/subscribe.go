package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"megadata/internal/flowdb"
)

// reportSubscribe measures what delta maintenance buys a standing
// dashboard: N per-location views over a 100k-row FlowDB, one epoch batch
// (a row per location) landing at a time. The incremental path folds each
// batch into every overlapping view (one merge per view per epoch) and
// reads the maintained results; the poll path answers the same reads with
// cold Selects (memoization off — a repeated window over a growing index
// can never be served from the memo), re-merging each location's full
// history per epoch. Throughput is view updates per second, median of
// five passes (a best-of baseline records a lucky outlier that every
// honest later run then "regresses" from); the incremental pass runs two
// thousand epochs (it is microseconds per epoch) and the poll pass
// twenty, so both measurements out-run scheduler noise. The 8-view
// configuration must hold at least 10x over polling — the PR's
// acceptance gate, and deliberately an absolute floor: it compares the
// two paths within one run, so a slow runner cancels out. The gate holds
// the incremental path.
func reportSubscribe() (baseline, error) {
	const rows = 100000
	const locations = 8
	// Per-path epoch counts: the incremental pass is microseconds per epoch
	// and needs a long run to out-measure scheduler noise; the poll pass is
	// milliseconds per epoch and a long run would take minutes.
	const incEpochs = 2000
	const pollEpochs = 20
	fmt.Printf("## Subscribe — incremental standing views vs cold-Select polling (GOMAXPROCS=%d, %d rows)\n\n",
		runtime.GOMAXPROCS(0), rows)
	trees, err := syntheticTrees()
	if err != nil {
		return nil, err
	}
	base := epoch0.Add(365 * 24 * time.Hour) // epochs land after every preloaded row
	batchAt := func(i int) []flowdb.Row {
		batch := make([]flowdb.Row, locations)
		for j := range batch {
			batch[j] = flowdb.Row{
				Location: fmt.Sprintf("site%02d", j),
				Start:    base.Add(time.Duration(i) * time.Minute),
				Width:    time.Minute,
				Tree:     trees[i%len(trees)],
			}
		}
		return batch
	}
	incremental := func(views int) (float64, error) {
		db, _, err := syntheticDB(trees, rows, locations)
		if err != nil {
			return 0, err
		}
		vs := make([]*flowdb.View, views)
		for j := range vs {
			v, err := db.Subscribe(flowdb.ViewQuery{Locations: []string{fmt.Sprintf("site%02d", j%locations)}})
			if err != nil {
				return 0, err
			}
			vs[j] = v
		}
		start := time.Now()
		for e := 0; e < incEpochs; e++ {
			if err := db.InsertBatch(batchAt(e)); err != nil {
				return 0, err
			}
			for _, v := range vs {
				if _, _, err := v.Result(); err != nil {
					return 0, err
				}
			}
		}
		return float64(incEpochs*views) / time.Since(start).Seconds(), nil
	}
	poll := func(views int) (float64, error) {
		db, _, err := syntheticDB(trees, rows, locations, flowdb.WithCacheEntries(0))
		if err != nil {
			return 0, err
		}
		end := base.Add(1 << 40)
		start := time.Now()
		for e := 0; e < pollEpochs; e++ {
			if err := db.InsertBatch(batchAt(e)); err != nil {
				return 0, err
			}
			for j := 0; j < views; j++ {
				if _, _, err := db.Select([]string{fmt.Sprintf("site%02d", j%locations)}, time.Time{}, end); err != nil {
					return 0, err
				}
			}
		}
		return float64(pollEpochs*views) / time.Since(start).Seconds(), nil
	}
	var entries []cell
	fmt.Println("| views | incremental upd/s | poll upd/s | speedup |")
	fmt.Println("|---|---|---|---|")
	var tooSlow bool
	for _, views := range []int{1, 8} {
		runs, err := passes(5,
			func() (float64, error) { return incremental(views) },
			func() (float64, error) { return poll(views) })
		if err != nil {
			return nil, err
		}
		incMed, pollMed := median(runs[0]), median(runs[1])
		speedup := incMed / pollMed
		fmt.Printf("| %d | %.0f | %.0f | %.1fx |\n", views, incMed, pollMed, speedup)
		if views == 8 && speedup < 10 {
			tooSlow = true
		}
		entries = append(entries, cell{
			"views": float64(views), "incremental_updates_per_sec": incMed, "poll_updates_per_sec": pollMed, "speedup": speedup,
		})
	}
	b := baseline{"": {{"rows": rows, "inc_epochs": incEpochs, "poll_epochs": pollEpochs}}, "entries": entries}
	if tooSlow {
		return b, errors.New("incremental standing views fell below 10x of cold-Select polling at 8 views")
	}
	return b, nil
}
