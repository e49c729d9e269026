package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// errDrift marks a -compare failure caused by configuration drift (a
// baseline that does not match the measured configurations) rather than a
// throughput regression. main exits 2 for drift and 1 for regressions, so
// CI can hard-fail on drift while treating regressions on noisy shared
// runners as warnings.
var errDrift = errors.New("baseline configuration drift")

// A cell is one measured configuration: the key fields that identify it and
// the metrics measured there.
type cell map[string]float64

// A baseline is what one gated experiment measures and what its
// BENCH_<name>.json file holds, as cells per section. Section "" is the
// file's top-level object (the run-wide configuration, such as the record
// count) and holds exactly one cell; every other section is a JSON array
// of cells.
type baseline map[string][]cell

// A spec describes one gated experiment: how to run it, and how compare
// matches and gates its baseline.
//
// Compare matches the cells of each section by their key fields; the
// top-level object is one cell keyed by its run-wide configuration. One
// drift rule covers every section. Drift means the baseline no longer
// describes what the experiment measures and must be regenerated
// deliberately (make bench-baseline), so the gate can never go vacuously
// green. Any of these is drift (exit 2):
//   - a cell present on one side only, which includes a changed top-level
//     key such as the record count;
//   - a gated field missing on either side.
//
// Every matched cell is held by its section's gates, of two kinds, and any
// gate failure is a regression (exit 1):
//   - ratio, higher is better: fresh >= stored·(1−tol);
//   - alloc, lower is better: fresh <= stored·(1+tol) + allocSlack.
type spec struct {
	name string
	tol  float64
	// run measures the experiment and prints its table. A baseline
	// returned together with an error means the run completed but missed
	// a floor the experiment sets between two paths of the same run.
	run      func() (baseline, error)
	sections []section
}

type section struct {
	name  string   // "" for the top-level object
	keys  []string // fields that identify a cell
	ratio []string // gated fields, higher is better
	alloc []string // gated fields, lower is better
}

// allocSlack is the absolute headroom of the alloc gate: tiny counts would
// otherwise flap on a single incidental allocation.
const allocSlack = 16

// specs lists the gated experiments in the order -exp gated runs them.
// Tolerances: 10% for the CPU-bound fold; 30% for the wall-clock paced
// export and federation turnaround and the scheduler- and fsync-sensitive
// query, stream and durable paths; 50% for subscribe and serve, whose
// primary gate is a within-run floor, so their baseline compare is meant to
// catch collapse rather than runner jitter.
var specs = []spec{
	{name: "compress", tol: 0.10, run: reportCompress, sections: []section{
		{keys: []string{"records"}},
		{name: "entries", keys: []string{"budget", "skew"},
			ratio: []string{"folds_per_sec"}, alloc: []string{"allocs_per_op", "bytes_per_op"}},
		{name: "clones", keys: []string{"skew"},
			ratio: []string{"clones_per_sec"}, alloc: []string{"allocs_per_op", "bytes_per_op"}},
	}},
	{name: "epoch", tol: 0.30, run: reportEpoch, sections: []section{
		{keys: []string{"records_per_site"}},
		{name: "entries", keys: []string{"sites", "shards"}, ratio: []string{"pipelined_epochs_per_sec"}},
	}},
	{name: "query", tol: 0.30, run: reportQuery, sections: []section{
		{keys: []string{"rows"}},
		{name: "entries", keys: []string{"rows", "locations", "window_epochs"}, ratio: []string{"cold_queries_per_sec"}},
	}},
	{name: "stream", tol: 0.30, run: reportStream, sections: []section{
		{keys: []string{"records", "max_batch"}},
		{name: "entries", keys: []string{"shards"},
			ratio: []string{"stream_rec_per_sec"}, alloc: []string{"stream_allocs_per_krec", "stream_bytes_per_rec"}},
	}},
	{name: "fed", tol: 0.30, run: reportFed, sections: []section{
		{keys: []string{"records_per_leaf"}},
		{name: "entries", keys: []string{"sites", "levels"}, ratio: []string{"pipelined_epochs_per_sec"}},
	}},
	{name: "durable", tol: 0.30, run: reportDurable, sections: []section{
		{keys: []string{"records", "max_batch"}},
		{name: "entries", keys: []string{"sync_every"}, ratio: []string{"wal_rec_per_sec"}},
	}},
	{name: "subscribe", tol: 0.50, run: reportSubscribe, sections: []section{
		{keys: []string{"rows", "inc_epochs", "poll_epochs"}},
		{name: "entries", keys: []string{"views"}, ratio: []string{"incremental_updates_per_sec"}},
	}},
	{name: "serve", tol: 0.50, run: reportServe, sections: []section{
		{keys: []string{"records", "queries", "clients"},
			ratio: []string{"socket_records_per_sec", "query_qps"}},
	}},
}

// file is the baseline's file name, relative to the repository root.
func (s spec) file() string { return "BENCH_" + s.name + ".json" }

// gate runs the experiment and, in the current directory, writes and/or
// compares its baseline. Drift or a regression against the baseline is
// reported ahead of a missed within-run floor.
func (s spec) gate(write, compare bool) error {
	fresh, err := s.run()
	if fresh == nil {
		return err
	}
	if write {
		if werr := s.write(".", fresh); werr != nil {
			return werr
		}
	}
	if compare {
		stored, lerr := s.load(".")
		if lerr != nil {
			return lerr
		}
		if cerr := s.compare(fresh, stored); cerr != nil {
			return cerr
		}
	}
	return err
}

// load reads the baseline from dir: top-level numbers form the "" cell,
// top-level arrays the other sections.
func (s spec) load(dir string) (baseline, error) {
	buf, err := os.ReadFile(filepath.Join(dir, s.file()))
	if err != nil {
		return nil, fmt.Errorf("read baseline: %w", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf, &raw); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", s.file(), err)
	}
	b := baseline{"": {cell{}}}
	for k, v := range raw {
		if k == "experiment" {
			var name string
			if err := json.Unmarshal(v, &name); err != nil || name != s.name {
				return nil, fmt.Errorf("%w: %s holds experiment %s", errDrift, s.file(), v)
			}
			continue
		}
		var x float64
		if json.Unmarshal(v, &x) == nil {
			b[""][0][k] = x
			continue
		}
		var cells []cell
		if err := json.Unmarshal(v, &cells); err != nil {
			return nil, fmt.Errorf("parse baseline %s: field %q: %w", s.file(), k, err)
		}
		b[k] = cells
	}
	return b, nil
}

// write stores b as the baseline in dir.
func (s spec) write(dir string, b baseline) error {
	obj := map[string]any{"experiment": s.name}
	for name, cells := range b {
		if name != "" {
			obj[name] = cells
			continue
		}
		for k, v := range cells[0] {
			obj[k] = v
		}
	}
	buf, err := json.MarshalIndent(obj, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, s.file())
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nbaseline written to %s\n", path)
	return nil
}

// compare diffs fresh against stored under the spec's drift rule and gates,
// printing a line per gated value and a verdict. The error wraps errDrift
// on drift.
func (s spec) compare(fresh, stored baseline) error {
	fmt.Printf("\ncomparison vs %s (tolerance %.0f%%):\n", s.file(), s.tol*100)
	var drifted, regressed bool
	known := map[string]bool{}
	for _, sec := range s.sections {
		known[sec.name] = true
		want := map[string]cell{}
		for _, c := range stored[sec.name] {
			want[sec.id(c)] = c
		}
		seen := map[string]bool{}
		for _, c := range fresh[sec.name] {
			id := sec.id(c)
			old, ok := want[id]
			if !ok {
				fmt.Printf("  %s: MISSING from baseline\n", id)
				drifted = true
				continue
			}
			seen[id] = true
			check := func(field string, pass func(got, was float64) bool) {
				got, inFresh := c[field]
				was, inStored := old[field]
				verdict := "ok"
				switch {
				case !inFresh || !inStored:
					verdict = "MISSING"
					drifted = true
				case !pass(got, was):
					verdict = "REGRESSION"
					regressed = true
				}
				fmt.Printf("  %s %s: %.1f vs %.1f (%.2fx) %s\n", id, field, got, was, got/was, verdict)
			}
			for _, f := range sec.ratio {
				check(f, func(got, was float64) bool { return got >= was*(1-s.tol) })
			}
			for _, f := range sec.alloc {
				check(f, func(got, was float64) bool { return got <= was*(1+s.tol)+allocSlack })
			}
		}
		for _, c := range stored[sec.name] {
			if id := sec.id(c); !seen[id] {
				fmt.Printf("  %s: in baseline, not re-measured\n", id)
				drifted = true
			}
		}
	}
	for name := range stored {
		if !known[name] {
			fmt.Printf("  %s: baseline section not measured\n", name)
			drifted = true
		}
	}
	switch {
	case drifted:
		return fmt.Errorf("%w: %s gate vs %s — regenerate with make bench-baseline", errDrift, s.name, s.file())
	case regressed:
		return fmt.Errorf("%s gate failed against %s", s.name, s.file())
	}
	fmt.Printf("%s gate ok against %s\n", s.name, s.file())
	return nil
}

// id names a cell by its section and key fields, e.g. "entries budget=1024
// skew=1.1".
func (sec section) id(c cell) string {
	parts := []string{sec.name}
	if sec.name == "" {
		parts = nil
	}
	for _, k := range sec.keys {
		parts = append(parts, k+"="+strconv.FormatFloat(c[k], 'f', -1, 64))
	}
	return strings.Join(parts, " ")
}

// exitCode maps a report error to the process exit status: 0 for success,
// 2 for drift, 1 for anything else.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errDrift):
		return 2
	}
	return 1
}
