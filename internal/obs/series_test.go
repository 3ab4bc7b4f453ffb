package obs

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"
)

// TestPrometheusWellFormed checks the exposition against the text format's
// structure, with no parser dependency: every HELP and TYPE line names a bare
// family (no label set), each family has exactly one of each, HELP then TYPE
// then its samples, and every sample belongs to the family declared last —
// the histogram's through its _bucket/_sum/_count suffixes. Checked on a
// fresh aggregator (always-on families only) and on the golden fixture
// (every family).
func TestPrometheusWellFormed(t *testing.T) {
	family := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? [^ ]+$`)
	for name, l := range map[string]*Live{"fresh": NewLive(), "golden fixture": goldenLive()} {
		var buf bytes.Buffer
		if err := l.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		help, typ := map[string]int{}, map[string]string{}
		current, samples := "", 0
		for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
			switch f := strings.SplitN(line, " ", 4); {
			case strings.HasPrefix(line, "# HELP "):
				if current != "" && samples == 0 {
					t.Errorf("%s: family %s declared with no samples", name, current)
				}
				current, samples = f[2], 0
				if !family.MatchString(current) || len(f) < 4 {
					t.Errorf("%s: malformed HELP line %q", name, line)
				}
				if help[current]++; help[current] > 1 {
					t.Errorf("%s: second HELP for %s", name, current)
				}
			case strings.HasPrefix(line, "# TYPE "):
				if len(f) != 4 || f[2] != current || samples > 0 {
					t.Errorf("%s: TYPE line %q does not follow its family's HELP", name, line)
				}
				if _, dup := typ[f[2]]; dup {
					t.Errorf("%s: second TYPE for %s", name, f[2])
				}
				typ[f[2]] = f[3]
			default:
				m := sample.FindStringSubmatch(line)
				if m == nil {
					t.Errorf("%s: malformed sample line %q", name, line)
					continue
				}
				of := m[1]
				if typ[current] == "histogram" {
					for _, suffix := range []string{"_bucket", "_sum", "_count"} {
						of = strings.TrimSuffix(of, suffix)
					}
				}
				if of != current || typ[current] == "" {
					t.Errorf("%s: sample %q is not under its family's HELP and TYPE (family declared last: %q)", name, line, current)
				}
				samples++
			}
		}
		if len(help) == 0 || len(help) != len(typ) {
			t.Errorf("%s: %d HELP lines, %d TYPE lines", name, len(help), len(typ))
		}
	}
}

// TestSeriesTable: every row of the table is served. A scalar's key is in
// Vars() with the Go type its accessor declares — bench/metrics.go
// type-asserts int64, float64 and phase_wall_ns as map[string]float64 — and
// every row's family is in /metrics, named once; no key and no series is
// declared twice.
func TestSeriesTable(t *testing.T) {
	l := goldenLive()
	vars := l.Vars().(map[string]any)
	var buf bytes.Buffer
	if err := l.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	keys, seen := 0, map[string]bool{}
	for _, r := range seriesTable {
		if n := strings.Count(buf.String(), "# TYPE tierscape_"+r.family+" "); n != 1 {
			t.Errorf("family %s has %d TYPE lines in /metrics, want 1", r.family, n)
		}
		if id := r.family + "{" + r.labels + "}"; seen[id] {
			t.Errorf("series %s declared twice", id)
		} else {
			seen[id] = true
		}
		if r.key == "" {
			if r.vector == nil {
				t.Errorf("scalar row %s has no Vars() key", r.family)
			}
			continue
		}
		if keys++; seen[r.key] {
			t.Errorf("key %s declared twice", r.key)
		}
		seen[r.key] = true
		switch v := vars[r.key].(type) {
		case int64:
			if r.isFloat() {
				t.Errorf("Vars()[%q] is an int64, the row accumulates a float64", r.key)
			}
		case float64:
			if !r.isFloat() {
				t.Errorf("Vars()[%q] is a float64, the row accumulates an int64", r.key)
			}
		default:
			t.Errorf("Vars()[%q] = %T, want int64 or float64", r.key, v)
		}
	}
	if keys < 26 {
		t.Errorf("%d scalar rows, want at least 26", keys)
	}
	if _, ok := vars["phase_wall_ns"].(map[string]float64); !ok {
		t.Errorf("Vars()[phase_wall_ns] = %T, want map[string]float64", vars["phase_wall_ns"])
	}
	if _, ok := vars["tier_stall_ns"].([]float64); !ok {
		t.Errorf("Vars()[tier_stall_ns] = %T, want []float64", vars["tier_stall_ns"])
	}
	if _, ok := vars["migrations"].([]TierFlow); !ok {
		t.Errorf("Vars()[migrations] = %T, want []TierFlow", vars["migrations"])
	}
	if _, ok := vars["health_transitions"].(map[string]int64); !ok {
		t.Errorf("Vars()[health_transitions] = %T, want map[string]int64", vars["health_transitions"])
	}
	if _, ok := vars["daemon_commands"].(map[string]map[string]int64); !ok {
		t.Errorf("Vars()[daemon_commands] = %T, want map[string]map[string]int64", vars["daemon_commands"])
	}
}

// TestScrapeAllocs: a scrape appends into one buffer. The fmt-based renderer
// this one replaced allocated 918 times on the golden fixture (two per
// sample line); the table walk must stay well under that — the daemon is
// scraped every tick.
func TestScrapeAllocs(t *testing.T) {
	l := goldenLive()
	if n := testing.AllocsPerRun(50, func() { _ = l.WritePrometheus(io.Discard) }); n > 100 {
		t.Errorf("%v allocations per scrape of the golden fixture, want at most 100 (the fmt renderer: 918)", n)
	}
}
