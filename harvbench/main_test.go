package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runBench runs the command in-process and returns its output lines and
// the decoded result line.
func runBench(t *testing.T, args ...string) ([]string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result: %v\n%s", args, err, out.String())
	}
	return lines, res
}

// TestSmoke runs every workload of BENCHMARK.json at minimal length with
// a fixed seed, untraced and traced. Each run must print exactly the
// metrics BENCHMARK.json lists for its mode, each with its unit, and no
// result may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp benchSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	type named = struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	for _, w := range sp.Workloads {
		for trace, want := range map[string][]named{"0": sp.EndToEnd, "1": sp.PerLayer} {
			lines, res := runBench(t, "--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace)
			text := strings.Join(lines, "\n")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d\n%s",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, text)
			}
			if !strings.Contains(text, "# fail_frac 0 ") {
				t.Errorf("%s trace=%s: fail_frac is not 0:\n%s", w.Name, trace, text)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestDigestRepeats checks that two runs with one seed print the same
// results digest.
func TestDigestRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice")
	}
	digest := func() string {
		lines, _ := runBench(t, "--workload", "refine_warm", "--seed", "3", "--seconds", "1")
		for _, l := range lines {
			if strings.HasPrefix(l, "# digest ") {
				return l
			}
		}
		t.Fatal("no digest line")
		return ""
	}
	if a, b := digest(), digest(); a != b {
		t.Errorf("digests differ: %q vs %q", a, b)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper_tables", "--trace", "2"},
		{"--workload", "paper_tables", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:15]); v != median(xs[:15]) || p != 50 {
		t.Errorf("tail of 15 samples = %v at p%v, want the median at p50", v, p)
	}
}
