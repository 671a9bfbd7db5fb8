// Package benchfmt defines the machine-readable benchmark-report format
// of the committed BENCH_*.json regression baselines: the CI bench gate
// (cmd/benchgate) converts a `go test -bench` run into this one schema
// and diffs it against a baseline without translation.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the report format version.
const Schema = "harvsim-bench/v1"

// Benchmark is one measured workload. NsPerOp/AllocsPerOp/BytesPerOp
// mirror `go test -bench -benchmem`; Metrics carries any additional
// named values (custom b.ReportMetric units).
type Benchmark struct {
	Name    string  `json:"name"`
	Runs    int     `json:"runs,omitempty"`
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// AllocsPerOp/BytesPerOp serialise even at zero: a committed zero is
	// a hard pin the gate enforces (any allocation regresses it), so it
	// must be visible in the baseline.
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is a full benchmark snapshot.
type Report struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go_version,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// NewReport returns an empty report carrying the schema tag.
func NewReport() Report { return Report{Schema: Schema} }

// Find returns the named benchmark, or nil.
func (r *Report) Find(name string) *Benchmark {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// Sort orders the benchmarks by name, for stable committed baselines.
func (r *Report) Sort() {
	sort.Slice(r.Benchmarks, func(i, j int) bool {
		return r.Benchmarks[i].Name < r.Benchmarks[j].Name
	})
}

// WriteFile writes the report as indented JSON.
func (r Report) WriteFile(path string) error {
	if r.Schema == "" {
		r.Schema = Schema
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a report and checks its schema tag.
func ReadFile(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return Report{}, fmt.Errorf("benchfmt: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return r, nil
}

// procSuffix matches the trailing GOMAXPROCS tag go test appends to
// benchmark names (BenchmarkFoo-8). It is stripped so baselines compare
// across machines with different core counts.
var procSuffix = regexp.MustCompile(`-\d+$`)

// ParseGoBench converts `go test -bench -benchmem` output into a report.
// Unrecognised lines are ignored; repeated runs of one benchmark (-count
// > 1) keep the fastest ns/op and the lowest allocs/op, the conventional
// noise floor.
func ParseGoBench(rd io.Reader) (Report, error) {
	rep := NewReport()
	byName := map[string]int{} // index into rep.Benchmarks: appends may move the array
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		runs, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		b := Benchmark{Name: name, Runs: runs}
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		if i, ok := byName[name]; ok {
			prev := &rep.Benchmarks[i]
			prev.Runs += b.Runs
			if b.NsPerOp > 0 && (prev.NsPerOp == 0 || b.NsPerOp < prev.NsPerOp) {
				prev.NsPerOp = b.NsPerOp
			}
			if b.AllocsPerOp < prev.AllocsPerOp {
				prev.AllocsPerOp = b.AllocsPerOp
			}
			if b.BytesPerOp < prev.BytesPerOp {
				prev.BytesPerOp = b.BytesPerOp
			}
			continue
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
		byName[name] = len(rep.Benchmarks) - 1
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// Regression is one gate violation: a benchmark whose cost grew beyond
// the tolerated ratio over the baseline.
type Regression struct {
	Name     string
	Metric   string // "ns/op" or "allocs/op"
	Base     float64
	Current  float64
	Ratio    float64 // Current/Base (+Inf when Base == 0)
	Tolerant float64 // the ratio the gate allowed
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%.2fx, allowed %.2fx)",
		r.Name, r.Metric, r.Base, r.Current, r.Ratio, r.Tolerant)
}

// Compare gates current against base: every benchmark present in base
// must exist in current (missing ones are reported) and must not regress
// by more than tol (0.20 = +20%) in ns/op or allocs/op. A zero-alloc
// baseline is a hard pin: any allocation at all regresses it.
func Compare(base, current Report, tol float64) (regressions []Regression, missing []string) {
	return CompareTol(base, current, tol, tol)
}

// CompareTol is Compare with independent tolerances for the two
// metrics. Allocation counts are machine-independent and deterministic,
// so allocTol can stay tight even when nsTol is widened to absorb
// hardware differences between the baseline machine and the runner.
func CompareTol(base, current Report, nsTol, allocTol float64) (regressions []Regression, missing []string) {
	nsRatio, allocRatio := 1+nsTol, 1+allocTol
	for _, b := range base.Benchmarks {
		cur := current.Find(b.Name)
		if cur == nil {
			missing = append(missing, b.Name)
			continue
		}
		if b.NsPerOp > 0 && cur.NsPerOp > b.NsPerOp*nsRatio {
			regressions = append(regressions, Regression{
				Name: b.Name, Metric: "ns/op",
				Base: b.NsPerOp, Current: cur.NsPerOp,
				Ratio: cur.NsPerOp / b.NsPerOp, Tolerant: nsRatio,
			})
		}
		switch {
		case b.AllocsPerOp == 0 && cur.AllocsPerOp > 0:
			regressions = append(regressions, Regression{
				Name: b.Name, Metric: "allocs/op",
				Base: 0, Current: cur.AllocsPerOp,
				Ratio: math.Inf(1), Tolerant: allocRatio,
			})
		case b.AllocsPerOp > 0 && cur.AllocsPerOp > b.AllocsPerOp*allocRatio:
			regressions = append(regressions, Regression{
				Name: b.Name, Metric: "allocs/op",
				Base: b.AllocsPerOp, Current: cur.AllocsPerOp,
				Ratio: cur.AllocsPerOp / b.AllocsPerOp, Tolerant: allocRatio,
			})
		}
	}
	return regressions, missing
}
