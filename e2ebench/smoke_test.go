package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bm.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bm.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runShort runs one workload for half a second and returns its printed
// lines and parsed result line.
func runShort(t *testing.T, args ...string) ([]string, result) {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"--seed", "7", "--seconds", "0.5", "--work-dir", t.TempDir()}, args...)
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return lines, res
}

// printed reports whether a "metric <name> <value> <unit>" line exists.
func printed(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == "metric" && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}

func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			lines, res := runShort(t, "--workload", wl, "--trace", trace)
			want := endToEnd
			// Printed for the record on every untraced run, outside the
			// gated set.
			extra := map[string]string{"error_rate": "ratio", "setup_wall_s": "s", "ops_per_s": "1/s",
				"p50_ms": "ms", "p90_ms": "ms", "p99_ms": "ms", "retained_heap_mb": "MB"}
			if trace == "1" {
				want, extra = perLayer, nil
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d\n%s", wl, trace, res.Correct, res.Failed, res.Attempted, strings.Join(lines, "\n"))
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics in the result, BENCHMARK.json declares %d", wl, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%s: result lacks %s in %s", wl, trace, name, unit)
				}
				if !printed(lines, name, unit) {
					t.Errorf("%s trace=%s: no printed line for %s in %s", wl, trace, name, unit)
				}
			}
			for name, unit := range extra {
				if !printed(lines, name, unit) {
					t.Errorf("%s: no printed line for %s in %s", wl, name, unit)
				}
			}
			if trace == "0" && !slices.Contains(lines, "metric error_rate 0 ratio (0 of "+strconv.Itoa(res.Attempted)+" failed)") {
				t.Errorf("%s: error_rate is not printed as 0", wl)
			}
		}
	}
}

func TestSmokeWrongExpectedValuesFailTheChecks(t *testing.T) {
	for _, wl := range workloadNames {
		_, res := runShort(t, "--workload", wl, "--trace", "0", "--wrong-expected")
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a perturbed expected value passed the checks (correct=%v failed=%d)", wl, res.Correct, res.Failed)
		}
	}
}
