// Command perfbench is the repository's benchmark: it drives the Figure 5
// pipeline (router frames → flowsource → Flowtree sites → epoch export →
// flowdb → FlowQL over flowserve) in a separate harness process and
// prints user-facing metrics, or — with --trace 1 — replays the same
// seeded inputs through each layer's public entry points in one goroutine
// and prints per-layer costs.
//
//	perfbench --workload firehose --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
// "perfbench harness …" is the system-under-test mode the driver launches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "harness" {
		if err := runHarness(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench harness:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// gated are the end-to-end metrics the JSON result carries: those whose
// run-to-run spread on a shared two-core host stays well inside a 25%
// bound on every workload. The others are printed for reading only; their
// spread there is wider than any bound a gate could use.
var gated = map[string]bool{
	"setup_s": true, "ingest_rec_per_s": true, "cpu_ms_per_krec": true,
	"query_p50_ms": true, "rss_peak_mb": true, "heavy_attrib_frac": true,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() error {
	name := flag.String("workload", "", "workload: firehose, live-ops, query-storm or fleet")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured run length")
	trace := flag.Int("trace", 0, "1 = print per-layer metrics from the traced replay")
	flag.Parse()
	sp, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	// The driver shares the host with the system under test: it may use
	// at most as many threads as there are CPUs.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))

	r, err := runE2E(sp, *seed, *seconds)
	if err != nil {
		return err
	}
	metrics := map[string]metric{}
	if *trace == 0 {
		r.endToEnd(metrics, *seconds)
		printHuman(metrics, gated)
		for name := range metrics {
			if !gated[name] {
				delete(metrics, name)
			}
		}
	} else {
		if metrics, err = runReplay(sp, *seed, r); err != nil {
			return err
		}
		printHuman(metrics, nil)
	}
	for _, f := range r.fail {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	if r.tal.firstErr != nil {
		fmt.Fprintln(os.Stderr, "first failed operation:", r.tal.firstErr)
	}
	rep := report{
		Correct:   len(r.fail) == 0,
		Attempted: r.tal.attempted.Load(),
		Failed:    r.tal.failed.Load(),
		Metrics:   metrics,
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd fills the user-facing metrics and prints each timing's sample
// counts. Tails are segment medians (see tail). A failed request was
// recorded as +Inf; a percentile that lands on one is reported as the
// whole run length, slower than any limit.
func (r *e2e) endToEnd(m map[string]metric, seconds float64) {
	capMs := seconds * 1000
	timing := func(name string, samples []float64, p float64) {
		d := newDist(samples)
		v, segs := d.pct(p), 1
		if p > 0.5 {
			v, segs = tail(samples, p)
		}
		if math.IsInf(v, 1) {
			v = capMs
		}
		m[name] = metric{v, "ms"}
		valid := "ok"
		if d.n() == 0 || (p > 0.5 && !d.tailOK(p)) {
			valid = "too few samples beyond it"
		}
		fmt.Printf("# %-18s n=%d beyond=%d segments=%d (%s)\n", name, d.n(), d.beyond(p), segs, valid)
	}
	m["setup_s"] = metric{median(r.setup), "s"}
	m["ingest_rec_per_s"] = metric{median(r.ingestRate), "rec/s"}
	timing("freshness_p50_ms", r.fresh, 0.5)
	timing("freshness_p90_ms", r.fresh, 0.9)
	timing("query_p50_ms", r.queryLat, 0.5)
	timing("query_p99_ms", r.queryLat, 0.99)
	m["query_qps"] = metric{r.qps, "q/s"}
	m["cpu_ms_per_krec"] = metric{median(r.cpuPerKrec), "ms"}
	m["cpu_ms_per_query"] = metric{r.cpuPerQuery, "ms"}
	m["rss_peak_mb"] = metric{r.rss, "MiB"}
	m["heavy_attrib_frac"] = metric{r.heavy, "ratio"}
	att, failed := r.tal.attempted.Load(), r.tal.failed.Load()
	fmt.Printf("# error_frac %.6g ratio (%d failed of %d attempted)\n", float64(failed)/float64(max(att, 1)), failed, att)
	late := newDist(r.late)
	fmt.Printf("# driver lateness p99 %.4g ms (n=%d beyond=%d)\n", late.pct(0.99), late.n(), late.beyond(0.99))
}

// printHuman prints every metric by name and unit; with a gated set, the
// metrics outside it are marked as read-only.
func printHuman(m map[string]metric, gated map[string]bool) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		note := ""
		if gated != nil && !gated[k] {
			note = "  (printed, not gated)"
		}
		fmt.Printf("%-34s %14.6g %s%s\n", k, m[k].Value, m[k].Unit, note)
	}
}
