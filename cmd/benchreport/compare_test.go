package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// repoRoot holds the checked-in BENCH_*.json baselines.
const repoRoot = "../.."

func loadChecked(t *testing.T, s spec) baseline {
	t.Helper()
	b, err := s.load(repoRoot)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return b
}

func copyCell(c cell) cell {
	cp := cell{}
	for k, v := range c {
		cp[k] = v
	}
	return cp
}

func copyBaseline(b baseline) baseline {
	out := baseline{}
	for name, cells := range b {
		for _, c := range cells {
			out[name] = append(out[name], copyCell(c))
		}
	}
	return out
}

func TestCheckedInBaselinesPassAgainstThemselves(t *testing.T) {
	for _, s := range specs {
		b := loadChecked(t, s)
		if err := s.compare(copyBaseline(b), b); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
}

// TestSpecFieldsExistInBaselines pins every key and gated field of every
// spec to its checked-in file, so a misspelt field cannot make a gate
// vacuous, and checks the keys tell the cells of a section apart.
func TestSpecFieldsExistInBaselines(t *testing.T) {
	for _, s := range specs {
		b := loadChecked(t, s)
		known := map[string]bool{}
		for _, sec := range s.sections {
			known[sec.name] = true
			cells := b[sec.name]
			if len(cells) == 0 {
				t.Errorf("%s: section %q is empty", s.name, sec.name)
			}
			ids := map[string]bool{}
			for _, c := range cells {
				for _, f := range append(append(append([]string(nil), sec.keys...), sec.ratio...), sec.alloc...) {
					if _, ok := c[f]; !ok {
						t.Errorf("%s: cell %q lacks field %q", s.name, sec.id(c), f)
					}
				}
				if ids[sec.id(c)] {
					t.Errorf("%s: keys %v do not tell cell %q apart", s.name, sec.keys, sec.id(c))
				}
				ids[sec.id(c)] = true
			}
		}
		for name := range b {
			if !known[name] {
				t.Errorf("%s: file section %q is not in the spec", s.name, name)
			}
		}
	}
}

// TestWriteRoundTrip loads each checked-in baseline, writes it and checks
// the written file holds exactly the fields and values of the original.
func TestWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, s := range specs {
		if err := s.write(dir, loadChecked(t, s)); err != nil {
			t.Fatal(err)
		}
		var orig, round any
		for path, v := range map[string]*any{filepath.Join(repoRoot, s.file()): &orig, filepath.Join(dir, s.file()): &round} {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(buf, v); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(orig, round) {
			t.Errorf("%s: round trip changed the baseline:\n got %v\nwant %v", s.name, round, orig)
		}
	}
}

// TestWritePathPerExperiment writes every gated experiment's baseline into
// one directory, as -exp gated -write does, and checks each lands in its
// own BENCH_<name>.json.
func TestWritePathPerExperiment(t *testing.T) {
	dir := t.TempDir()
	for _, s := range specs {
		if err := s.write(dir, loadChecked(t, s)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(specs) {
		t.Fatalf("%d files written for %d experiments", len(entries), len(specs))
	}
	for _, s := range specs {
		if s.file() != "BENCH_"+s.name+".json" {
			t.Errorf("%s writes %s", s.name, s.file())
		}
		if _, err := s.load(dir); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	// firstGated returns the first cell of the first section gating a field
	// of the kind pick selects, with that field.
	firstGated := func(s spec, b baseline, pick func(section) []string) (cell, string, bool) {
		for _, sec := range s.sections {
			if fields := pick(sec); len(fields) > 0 {
				return b[sec.name][0], fields[0], true
			}
		}
		return nil, "", false
	}
	ratio := func(sec section) []string { return sec.ratio }
	alloc := func(sec section) []string { return sec.alloc }
	cases := []struct {
		name string
		want int
		// edit changes fresh or stored; false means the case does not
		// apply to the spec.
		edit func(s spec, fresh, stored baseline) bool
	}{
		{"throughput just past tolerance", 1, func(s spec, fresh, _ baseline) bool {
			c, f, ok := firstGated(s, fresh, ratio)
			if ok {
				c[f] *= 1 - s.tol - 0.001
			}
			return ok
		}},
		{"throughput just within tolerance", 0, func(s spec, fresh, _ baseline) bool {
			c, f, ok := firstGated(s, fresh, ratio)
			if ok {
				c[f] *= 1 - s.tol + 0.001
			}
			return ok
		}},
		{"allocs at tolerance plus 15", 0, func(s spec, fresh, _ baseline) bool {
			c, f, ok := firstGated(s, fresh, alloc)
			if ok {
				c[f] = c[f]*(1+s.tol) + 15
			}
			return ok
		}},
		{"allocs at tolerance plus 17", 1, func(s spec, fresh, _ baseline) bool {
			c, f, ok := firstGated(s, fresh, alloc)
			if ok {
				c[f] = c[f]*(1+s.tol) + 17
			}
			return ok
		}},
		{"cell removed", 2, func(s spec, fresh, _ baseline) bool {
			sec := s.sections[len(s.sections)-1].name
			if sec == "" {
				return false
			}
			fresh[sec] = fresh[sec][1:]
			return true
		}},
		{"cell added", 2, func(s spec, fresh, _ baseline) bool {
			sec := s.sections[len(s.sections)-1]
			if sec.name == "" {
				return false
			}
			extra := copyCell(fresh[sec.name][0])
			extra[sec.keys[0]] = -1
			fresh[sec.name] = append(fresh[sec.name], extra)
			return true
		}},
		{"top-level key changed", 2, func(s spec, fresh, _ baseline) bool {
			fresh[""][0][s.sections[0].keys[0]]++
			return true
		}},
		{"gated field missing from stored", 2, func(s spec, _, stored baseline) bool {
			c, f, ok := firstGated(s, stored, ratio)
			delete(c, f)
			return ok
		}},
		{"gated field missing from fresh", 2, func(s spec, fresh, _ baseline) bool {
			c, f, ok := firstGated(s, fresh, ratio)
			delete(c, f)
			return ok
		}},
		{"section present on one side only", 2, func(_ spec, _, stored baseline) bool {
			stored["unmeasured"] = []cell{{"x": 1}}
			return true
		}},
	}
	for _, tc := range cases {
		applied := false
		for _, s := range specs {
			stored := loadChecked(t, s)
			fresh := copyBaseline(stored)
			if !tc.edit(s, fresh, stored) {
				continue
			}
			applied = true
			if got := exitCode(s.compare(fresh, stored)); got != tc.want {
				t.Errorf("%s, %s: exit %d, want %d", tc.name, s.name, got, tc.want)
			}
		}
		if !applied {
			t.Errorf("%s: applies to no experiment", tc.name)
		}
	}
}
