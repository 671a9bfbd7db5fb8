// Command harvbench is the harvsim benchmark. One command runs one
// workload closed-loop from this process for a measured window, checks
// every result it receives, and prints its metrics:
//
//	harvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The workloads are paper_tables (the paper's Table I and Table II runs
// on the library path), ensemble_cold (seed ensembles of the wideband
// noise scenario against one sweep server, every job a cache miss) and
// refine_warm (refinement sub-grids of a primed design grid through a
// shard coordinator, every job a cache hit). The seed generates the
// inputs; the same seed gives the same inputs and the same results
// digest.
//
// With --trace 0 the window is untraced and the last output line carries
// the end-to-end metrics. Their timings are process CPU time: on a shared
// virtual machine, host contention moves wall time between runs far more
// than any change worth catching, so wall-clock latency and throughput
// are printed as notes only. With --trace 1 the run measures half the
// window untraced and half traced, runs the per-layer ladder, prints the
// attribution table and carries the per-layer metrics instead. Lines
// before the last one start with "#" and are for people; see README.md.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"harvsim/internal/harvester"
	"harvsim/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setUps is how many times a run sets its workload up; setup_s is the
// median.
const setUps = 3

// sample is one closed-loop operation (a Table I/II cycle or one sweep
// request) as its client saw it.
type sample struct {
	lat, first     time.Duration
	points, failed int
	cached, shared int
	simS           float64 // simulated seconds of the results delivered
}

// sliceMin is the shortest stretch of a window that a per-slice cost
// covers. Host contention on a shared machine comes in phases of seconds,
// so a window of many one-second slices holds slices from its quiet
// phases, and the cheaper quartile of slice costs tracks the uncontended
// cost where the window's total would track the mix of phases.
const sliceMin = time.Second

// slice is a stretch of a window between two operation completions.
type slice struct {
	cpu    time.Duration
	points int
	simS   float64
}

// window is one measured stretch of closed-loop traffic.
type window struct {
	slices  []slice
	wall    time.Duration
	samples []sample
	mallocs uint64
	steal   float64       // share of the host's CPU time stolen from this machine
	cpu     time.Duration // CPU time the process used
	rssMB   float64       // peak resident memory of the process so far
	rssErr  error
}

func (w window) sum(f func(sample) int) int {
	n := 0
	for _, s := range w.samples {
		n += f(s)
	}
	return n
}

func (w window) points() int { return w.sum(func(s sample) int { return s.points }) }
func (w window) failed() int { return w.sum(func(s sample) int { return s.failed }) }

func (w window) pointsPerS() float64 { return float64(w.points()) / w.wall.Seconds() }

// cpuPerPoint is the process CPU time per delivered result over the
// whole window, in ms.
func (w window) cpuPerPoint() float64 {
	return float64(w.cpu) / float64(time.Millisecond) / float64(max(w.points(), 1))
}

// sliceQuantile is the q-quantile over the window's slices of f, which
// maps a slice to a cost or rate; without a complete slice it is f of the
// whole window.
func (w window) sliceQuantile(q float64, f func(slice) float64) float64 {
	var xs []float64
	for _, s := range w.slices {
		if s.points > 0 && s.cpu > 0 {
			xs = append(xs, f(s))
		}
	}
	if len(xs) == 0 {
		return f(slice{cpu: w.cpu, points: w.points(), simS: simS(w)})
	}
	return quantile(xs, q)
}

func slicePerPoint(s slice) float64 {
	return float64(s.cpu) / float64(time.Millisecond) / float64(s.points)
}

func sliceSimPerCPU(s slice) float64 { return s.simS / s.cpu.Seconds() }

func (w window) lats() (lat, first []float64) {
	for _, s := range w.samples {
		lat = append(lat, float64(s.lat)/float64(time.Millisecond))
		first = append(first, float64(s.first)/float64(time.Millisecond))
	}
	return lat, first
}

// workload is one benchmark workload. setUp builds the inputs from the
// seed, starts any servers and runs one warm-up operation; op runs one
// closed-loop operation of one client.
type workload interface {
	clients() int
	setUp() error
	tearDown()
	op(client int, traced bool) sample
	// simPerS is the sim_s_per_cpu_s metric of a measured window.
	simPerS(w window) float64
	// speedup is the speedup_vs_trap metric.
	speedup() (float64, error)
	// check runs the checks that need the whole window and returns the
	// number of incorrect results it found.
	check() int
	// point is the workload's representative design point, which the
	// ladder measures.
	point() harvester.Scenario
	// traceOf returns the spans the traced window recorded, the number
	// of results they cover, and the number of operations they cover.
	traceOf() (spans []wire.SpanLine, points, ops int, err error)
	base() *common
}

// common is the bookkeeping every workload shares: its seed, results
// digest, fleet fault counters and the first few check failures.
type common struct {
	seed uint64
	mu   sync.Mutex
	dig  hash.Hash
	errs []string
	nerr int
	// faults counts the retries, re-shards and lost workers coordinator
	// summaries reported.
	faults [3]int
}

func newCommon(seed uint64) common { return common{seed: seed, dig: sha256.New()} }

func (c *common) base() *common { return c }

// fail records a failed check.
func (c *common) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nerr++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// digestLine folds one result's physics (never its timing) into the
// results digest.
func (c *common) digestLine(r wire.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b [8]byte
	c.dig.Write([]byte(r.Name))
	c.dig.Write([]byte(r.Key))
	c.dig.Write([]byte(r.Error))
	for _, f := range []wire.Float{r.Metric, r.RMSPower, r.MeanPower, r.FinalVc} {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(f)))
		c.dig.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(r.Steps))
	c.dig.Write(b[:])
}

// digestLines folds a stream's result lines into the digest in index
// order, which unlike arrival order does not depend on scheduling.
func (c *common) digestLines(lines []wire.Result) {
	sorted := append([]wire.Result(nil), lines...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for _, l := range sorted {
		c.digestLine(l)
	}
}

// sameLine reports whether two result lines carry bit-identical physics.
func sameLine(a, b wire.Result) bool {
	bits := func(f wire.Float) uint64 { return math.Float64bits(float64(f)) }
	return a.Index == b.Index && a.Name == b.Name && a.Key == b.Key && a.Error == b.Error &&
		bits(a.Metric) == bits(b.Metric) && bits(a.RMSPower) == bits(b.RMSPower) &&
		bits(a.MeanPower) == bits(b.MeanPower) && bits(a.FinalVc) == bits(b.FinalVc) && a.Steps == b.Steps
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "paper_tables":
		return newPaperTables(seed), nil
	case "ensemble_cold":
		return newEnsembleCold(seed), nil
	case "refine_warm":
		return newRefineWarm(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper_tables | ensemble_cold | refine_warm)", name)
}

// measure runs the workload's clients closed-loop for d: each client
// starts its next operation only when the previous one has finished, and
// stops after the first operation that ends past the deadline.
func measure(wl workload, d time.Duration, traced bool) window {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0, total0 := hostCPU()
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, wl.clients())
	type mark struct {
		at     time.Time
		cpu    time.Duration
		points int
		simS   float64
	}
	var mu sync.Mutex
	var marks []mark // operation completions, in order
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				s := wl.op(c, traced)
				per[c] = append(per[c], s)
				mu.Lock()
				marks = append(marks, mark{time.Now(), processCPU(), s.points, s.simS})
				mu.Unlock()
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	w := window{wall: time.Since(start), cpu: processCPU() - cpu0}
	var acc slice
	from, fromCPU := start, cpu0
	for _, m := range marks {
		acc.points += m.points
		acc.simS += m.simS
		if m.at.Sub(from) >= sliceMin {
			acc.cpu = m.cpu - fromCPU
			w.slices = append(w.slices, acc)
			acc, from, fromCPU = slice{}, m.at, m.cpu
		}
	}
	steal1, total1 := hostCPU()
	w.steal = float64(steal1-steal0) / float64(max(total1-total0, 1))
	w.rssMB, w.rssErr = peakRSSMB()
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	return w
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each with its sample count.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) add(name, unit string, v float64, n int, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.out, "# %-28s %14.6g %-6s n=%d%s\n", name, v, unit, n, note)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("harvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper_tables | ensemble_cold | refine_warm")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured window [s]")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "harvbench: want --seconds > 0, --trace 0|1 and no positional arguments")
		return 2
	}
	res, err := bench(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "harvbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "harvbench: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench sets the workload up, measures it and returns the result line.
func bench(name string, seed uint64, d time.Duration, traced bool, out io.Writer) (result, error) {
	wl, err := newWorkload(name, seed)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	for i := 0; i < setUps; i++ {
		if i > 0 {
			wl.tearDown()
		}
		c0 := processCPU()
		if err := wl.setUp(); err != nil {
			wl.tearDown()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (processCPU() - c0).Seconds())
	}
	defer wl.tearDown()

	rep := &report{out: out, metrics: map[string]metric{}}
	fmt.Fprintf(out, "# harvbench %s seed=%d window=%s traced=%v\n", name, seed, d, traced)
	var w window
	if !traced {
		w = measure(wl, d, false)
		fmt.Fprintf(out, "# host steal %.1f%% of CPU time during the window\n", 100*w.steal)
	} else {
		off := measure(wl, d/2, false)
		w = measure(wl, d/2, true)
		if err := layerMetrics(wl, name, off, w, rep); err != nil {
			return result{}, err
		}
	}
	failed := w.failed() + wl.check()
	if !traced {
		if err := endToEnd(wl, w, setups, rep); err != nil {
			return result{}, err
		}
	}
	c := wl.base()
	for _, e := range c.errs {
		fmt.Fprintln(out, "# check failed:", e)
	}
	failed += c.nerr
	attempted := w.points() + w.failed()
	fmt.Fprintf(out, "# fail_frac %.6g (%d failed or incorrect of %d attempted)\n",
		float64(failed)/float64(max(attempted, 1)), failed, attempted)
	fmt.Fprintf(out, "# digest %s\n", hex.EncodeToString(c.dig.Sum(nil)))
	for k, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	return result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: rep.metrics}, nil
}

// endToEnd computes the end-to-end metrics of an untraced window. The
// gated ones are counted in process CPU time, which host contention moves
// far less than wall time; the wall-clock figures follow as notes.
func endToEnd(wl workload, w window, setups []float64, rep *report) error {
	pts := w.points()
	rep.add("setup_s", "s", median(setups), len(setups), "median CPU time of the set-ups")
	rep.add("cpu_ms_per_point", "ms", w.sliceQuantile(0.25, slicePerPoint), len(w.slices),
		fmt.Sprintf("process CPU per result, cheaper quartile of 1 s slices; whole window %.4g", w.cpuPerPoint()))
	rep.add("sim_s_per_cpu_s", "s/s", wl.simPerS(w), len(w.slices), "simulated seconds per CPU second, faster quartile")
	sp, err := wl.speedup()
	if err != nil {
		return err
	}
	rep.add("speedup_vs_trap", "x", sp, len(w.samples), "trap CPU / proposed CPU")
	rep.add("allocs_per_point", "count", float64(w.mallocs)/float64(max(pts, 1)), pts, "")
	if w.rssErr != nil {
		return w.rssErr
	}
	rep.add("peak_rss_mb", "MB", w.rssMB, 1, "VmHWM at the end of the window")

	lat, first := w.lats()
	n := len(w.samples)
	tv, tp := tail(lat)
	fmt.Fprintf(rep.out, "# wall clock (not gated): points_per_s %.6g (n=%d), latency_p50_ms %.6g, latency_tail_ms %.6g at p%.0f, first_result_ms %.6g (n=%d operations)\n",
		w.pointsPerS(), pts, median(lat), tv, tp, median(first), n)
	return nil
}

// sortedKeys lists a map's keys in order.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
