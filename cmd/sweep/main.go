// Command sweep demonstrates the paper's stated motivation for fast
// simulation: automated design exploration, where "the best topology and
// optimal parameters of the energy harvester are obtained iteratively
// using multiple simulations". It sweeps the voltage-multiplier design
// (stage count and stage capacitance) through the concurrent batch
// runner and ranks configurations by the power delivered into the
// partially charged storage element — a workload that is practical
// because each full-system simulation takes a fraction of a second under
// the explicit engine, and that now scales across every core the machine
// has, caches repeated candidates, averages stochastic workloads over
// seed ensembles, and (with -remote) runs against a long-lived sweep
// server whose cache is shared by every client.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/harvester"
	"harvsim/internal/tracing"
	"harvsim/internal/wire"
)

const usageFooter = `
Base workloads (chosen by flags, all sweep the Dickson multiplier design):
  default          sinusoidal 70 Hz charge scenario (deterministic)
  -noise-seed N    seeded band-limited noise excitation, 55-85 Hz,
                   RMS 0.59 m/s^2 (N != 0 selects this workload)
  -bistable        double-well (bistable) device under seeded noise,
                   8-40 Hz band around the in-well resonance; tune the
                   well with -well/-barrier/-xi1/-xi2. Summaries and
                   ensemble tables gain basin columns (high-orbit
                   fraction, transit counts, per-basin mean/CI)

Ensembles (stochastic workloads only):
  -seeds N         run every design point under N noise realisations
                   (seeds derived from -noise-seed) and rank by the
                   ensemble mean power, reporting variance and 95% CI

Result cache:
  -cache           serve repeated candidates from an in-memory
                   content-addressed result cache
  -cache-dir DIR   additionally persist results under DIR, so re-running
                   the sweep (or zooming into the argmax region) is
                   served from disk instead of re-simulating
  -v               verbose: full cache counters (hits/misses/evictions/
                   in-flight shares) and the complete ensemble table with
                   95% CI half-widths, so warm-vs-cold behaviour is
                   observable without reading code

Remote mode:
  -remote URL      run the identical sweep against a long-lived sweep
                   server (cmd/serve) instead of simulating locally: the
                   spec travels as declarative JSON, results stream back
                   as NDJSON, and the server's shared cache makes repeats
                   (from any client) free

Tracing:
  -trace           record a span per sweep phase and job (cache probe,
                   march, factorisation, stability scan) and render a
                   per-phase waterfall of the slowest jobs after the
                   ranking tables; works locally and with -remote
                   (against a worker or a coordinator fleet, whose
                   merged trace spans every worker). Results are
                   bit-identical with and without -trace.
  -trace-top N     waterfall rows: the N slowest jobs (default 5)

Examples:
  sweep -sim 12 -vc 2.5 -top 5
  sweep -noise-seed 7 -seeds 8 -cache-dir /tmp/harvsim-cache -v
  sweep -bistable -noise-seed 7 -seeds 8 -barrier 8e-6
  sweep -remote http://127.0.0.1:8080 -sim 12 -vc 2.5
  sweep -remote http://127.0.0.1:8080 -trace -trace-top 3
`

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"Usage: sweep [flags]\n\nDickson voltage-multiplier design sweep over the concurrent batch runner.\n\nFlags:\n")
	flag.PrintDefaults()
	fmt.Fprint(flag.CommandLine.Output(), usageFooter)
}

// The bistable workload's excitation band: wrapped around the default
// geometry's ~18 Hz in-well resonance rather than the monostable
// device's 55-85 Hz band.
const (
	bistableFLo = 8.0
	bistableFHi = 40.0
)

// parseFloatList parses a comma-separated float list ("0,1e9,5e9").
func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// options is one parsed command line: the sweep's wire spec and how to
// run and render it. Local and remote mode run the same spec.
type options struct {
	spec     wire.Spec
	vc       float64
	workers  int
	topK     int
	seeds    int
	useCache bool
	cacheDir string
	remote   string
	trace    bool
	traceTop int
	verbose  bool
}

// parseArgs defines the command's flags on fs, parses args and checks
// them. A returned error is a usage error.
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var (
		o                                 options
		simFor, wellM, barrierJ, xi1, xi2 float64
		k3List                            string
		noiseSd                           uint64
		bistable                          bool
	)
	fs.Float64Var(&simFor, "sim", 12, "simulated span per candidate [s]")
	fs.Float64Var(&o.vc, "vc", 2.5, "storage operating point [V]")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS; in remote mode, requested of the server)")
	fs.IntVar(&o.topK, "top", 10, "ranked designs to print")
	fs.StringVar(&k3List, "k3", "", "comma-separated cubic spring coefficients [N/m^3] to add as a Duffing sweep axis (e.g. 0,1e9,5e9)")
	fs.Uint64Var(&noiseSd, "noise-seed", 0, "nonzero: replace the sinusoid with seeded band-limited noise (55-85 Hz, RMS 0.59 m/s^2)")
	fs.BoolVar(&bistable, "bistable", false, "double-well (bistable) device under seeded noise (8-40 Hz band); needs -noise-seed")
	fs.Float64Var(&wellM, "well", harvester.BistableWellM, "bistable: well displacement [m]")
	fs.Float64Var(&barrierJ, "barrier", harvester.BistableBarrierJ, "bistable: double-well barrier height [J]")
	fs.Float64Var(&xi1, "xi1", 0, "bistable: linear coupling correction [1/m]")
	fs.Float64Var(&xi2, "xi2", 0, "bistable: quadratic coupling correction [1/m^2]")
	fs.IntVar(&o.seeds, "seeds", 1, "noise realisations per design point (>1 adds a seed ensemble axis and reports mean/CI statistics; needs -noise-seed)")
	fs.BoolVar(&o.useCache, "cache", false, "serve repeated candidates from an in-memory result cache")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "persist cached results under this directory (implies -cache)")
	fs.StringVar(&o.remote, "remote", "", "sweep server base URL (e.g. http://127.0.0.1:8080); runs the sweep remotely instead of simulating locally")
	fs.BoolVar(&o.trace, "trace", false, "trace the sweep and render a per-phase waterfall of the slowest jobs (results are bit-identical either way)")
	fs.IntVar(&o.traceTop, "trace-top", 5, "slowest jobs to show in the -trace waterfall")
	fs.BoolVar(&o.verbose, "v", false, "verbose: full cache counters and complete ensemble CI table")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	switch {
	case o.seeds < 1:
		return options{}, fmt.Errorf("-seeds must be >= 1 (got %d)", o.seeds)
	case o.seeds > 1 && noiseSd == 0:
		return options{}, fmt.Errorf("-seeds %d needs a stochastic workload: set -noise-seed (the ensemble base seed)", o.seeds)
	case bistable && noiseSd == 0:
		return options{}, fmt.Errorf("-bistable is noise-driven: set -noise-seed (the realisation seed)")
	case wellM < 0 || barrierJ < 0:
		return options{}, fmt.Errorf("-well and -barrier must be >= 0 (got %g, %g)", wellM, barrierJ)
	case o.remote != "" && (o.useCache || o.cacheDir != ""):
		return options{}, fmt.Errorf("-cache/-cache-dir are local-mode flags; the server at -remote owns the (always-on) shared cache")
	}
	var k3s []float64
	if k3List != "" {
		var err error
		k3s, err = parseFloatList(k3List)
		if err != nil {
			return options{}, fmt.Errorf("-k3: %v", err)
		}
		if len(k3s) == 0 {
			return options{}, fmt.Errorf("-k3 %q holds no values", k3List)
		}
	}
	sc := wire.Scenario{Kind: "charge", DurationS: simFor, Set: map[string]float64{"initial_vc": o.vc}}
	switch {
	case bistable:
		sc.Kind, sc.WellM, sc.BarrierJ, sc.Xi1, sc.Xi2 = "bistable", wellM, barrierJ, xi1, xi2
		sc.NoiseFLoHz, sc.NoiseFHiHz, sc.NoiseSeed = bistableFLo, bistableFHi, wire.Seed(noiseSd)
	case noiseSd != 0:
		sc.Kind, sc.NoiseFLoHz, sc.NoiseFHiHz, sc.NoiseSeed = "noise", 55, 85, wire.Seed(noiseSd)
	}
	o.spec = designSpec(sc, k3s, o.seeds)
	return o, nil
}

func main() {
	flag.Usage = usage
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if o.remote != "" {
		if err := runRemote(os.Stdout, o); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: remote: %v\n", err)
			os.Exit(1)
		}
		return
	}
	failed, err := runLocal(os.Stdout, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// designSpec builds the one sweep both modes run: the Dickson design
// grid (stage count x stage capacitance, plus the optional k3 and seed
// axes) over the base workload sc, ranked by mean power into the store
// over the settled window. Local mode compiles it and remote mode
// submits it, so local and remote runs share cache identities by
// construction.
func designSpec(sc wire.Scenario, k3s []float64, seeds int) wire.Spec {
	spec := wire.Spec{
		Name:     "dickson",
		V:        wire.Version,
		Scenario: sc,
		Metric:   wire.MetricPStoreMeanSettled,
		Axes: []wire.Axis{
			{Kind: wire.AxisInt, Param: "dickson.stages", Name: "stages", Ints: []int{2, 3, 4, 5, 6, 7}},
			{Kind: wire.AxisFloat, Param: "dickson.cstage", Name: "cstage", Values: []float64{10e-6, 22e-6, 47e-6}},
		},
	}
	if len(k3s) > 0 {
		spec.Axes = append(spec.Axes, wire.Axis{Kind: wire.AxisFloat, Param: "microgen.k3", Name: "k3", Values: k3s})
	}
	if seeds > 1 {
		spec.Axes = append(spec.Axes, wire.Axis{Kind: wire.AxisSeed, Name: "seed",
			BaseSeed: sc.NoiseSeed, Count: seeds})
	}
	return spec
}

// runLocal compiles the sweep's wire spec and runs it in process,
// rendering the report remote mode renders. It returns the number of
// failed candidates; an error means no job ran.
func runLocal(w io.Writer, o options) (int, error) {
	spec, err := o.spec.Compile()
	if err != nil {
		return 0, err
	}
	opt := batch.Options{Workers: o.workers}
	switch {
	case o.cacheDir != "":
		c, err := batch.NewDiskCache(0, o.cacheDir)
		if err != nil {
			return 0, err
		}
		opt.Cache = c
	case o.useCache:
		opt.Cache = batch.NewCache(0)
	}

	// -trace: the local run owns its recorder directly — a root sweep
	// span over the batch layer's job spans; a server's trace adds its
	// expand, queue and exec phases under the root.
	var rec *tracing.Recorder
	var rootSpan *tracing.Active
	if o.trace {
		rec = tracing.New("", 0)
		rootSpan = rec.Start("sweep", "")
		opt.Trace = rec
		opt.TraceParent = rootSpan.ID()
	}

	fmt.Fprintf(w, "design sweep: %d candidates, %.3g s simulated each, %d workers\n",
		spec.Size(), o.spec.Scenario.DurationS, opt.EffectiveWorkers())
	start := time.Now()
	results, err := batch.Sweep(context.Background(), spec, opt)
	if err != nil {
		return 0, err
	}
	wall := time.Since(start)
	rootSpan.End()
	rec.Finish()

	var cacheStats *wire.CacheStats
	if opt.Cache != nil {
		cs := wire.CacheStatsOf(opt.Cache)
		cacheStats = &cs
	}
	failed := report(w, o, results, wall, cacheStats)
	if rec != nil {
		spans, _ := rec.Snapshot(0)
		renderTrace(w, spans, o.traceTop)
	}
	return failed, nil
}

// renderTrace prints a completed trace: the sweep-level phases first
// (root, expand, queue/exec or per-worker shards), depth-first from the
// root with each parent above its children and siblings in start order,
// then a per-phase waterfall of the slowest jobs — each phase bar
// positioned and scaled inside its job's wall-clock window, so "slow
// because cache-miss march" and "slow because factorisation churn" read
// directly off the terminal.
func renderTrace(w io.Writer, spans []tracing.Span, top int) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "\ntrace: no spans recorded")
		return
	}
	byID := make(map[string]tracing.Span, len(spans))
	children := make(map[string][]tracing.Span)
	for _, s := range spans {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}

	fmt.Fprintf(w, "\ntrace %s (%d spans)\n", spans[0].Trace, len(spans))
	// Roots are the spans whose parent is not in the trace (the client's
	// root has none; a remote caller's may be elsewhere).
	var roots []tracing.Span
	for _, s := range spans {
		if _, ok := byID[s.Parent]; !ok {
			roots = append(roots, s)
		}
	}
	var printTree func(level []tracing.Span, depth int)
	printTree = func(level []tracing.Span, depth int) {
		sort.SliceStable(level, func(i, j int) bool { return level[i].Start.Before(level[j].Start) })
		for _, s := range level {
			if s.Job >= 0 {
				continue
			}
			label := s.Name
			if s.Worker != "" {
				label += " " + s.Worker
			}
			fmt.Fprintf(w, "  %-52s %12s\n", strings.Repeat("  ", depth)+label, s.Dur.Round(time.Microsecond))
			if depth < 8 {
				printTree(children[s.ID], depth+1)
			}
		}
	}
	printTree(roots, 0)

	var jobs []tracing.Span
	for _, s := range spans {
		if s.Name == "job" && s.Job >= 0 {
			jobs = append(jobs, s)
		}
	}
	if len(jobs) == 0 {
		return
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Dur > jobs[j].Dur })
	if top <= 0 || top > len(jobs) {
		top = len(jobs)
	}
	const width = 32
	fmt.Fprintf(w, "slowest %d of %d jobs (bars span each job's window):\n", top, len(jobs))
	for _, js := range jobs[:top] {
		fmt.Fprintf(w, "  job %-6d %-37s %12s\n", js.Job, "", js.Dur.Round(time.Microsecond))
		var phases []tracing.Span
		var walk func(id string)
		walk = func(id string) {
			for _, c := range children[id] {
				phases = append(phases, c)
				walk(c.ID)
			}
		}
		walk(js.ID)
		sort.Slice(phases, func(i, j int) bool { return phases[i].Start.Before(phases[j].Start) })
		for _, p := range phases {
			lo, n := 0, width
			if js.Dur > 0 {
				off := p.Start.Sub(js.Start)
				if off < 0 {
					off = 0
				}
				lo = int(float64(off) / float64(js.Dur) * width)
				n = int(float64(p.Dur) / float64(js.Dur) * width)
			}
			if lo >= width {
				lo = width - 1
			}
			if n < 1 {
				n = 1
			}
			if lo+n > width {
				n = width - lo
			}
			bar := strings.Repeat(" ", lo) + strings.Repeat("#", n) + strings.Repeat(" ", width-lo-n)
			fmt.Fprintf(w, "    %-10s [%s] %12s\n", p.Name, bar, p.Dur.Round(time.Microsecond))
		}
	}
}

// report renders a completed sweep — shared by local and remote modes so
// both read identically — and returns the number of failed candidates
// (the caller decides the process exit status; report itself never
// exits, so the remote path can wrap the count in a proper error).
func report(w io.Writer, o options, results []batch.Result, wall time.Duration, cacheStats *wire.CacheStats) int {
	sum := batch.Summarize(results)
	fmt.Fprintf(w, "completed in %v wall (summed job time %v)\n\n",
		wall.Round(time.Millisecond), sum.CPUTime.Round(time.Millisecond))

	var ranked []batch.EnsemblePoint
	if o.seeds > 1 {
		points := batch.Ensembles(results)
		ranked = batch.EnsembleTop(points, o.topK)
		fmt.Fprintf(w, "ensemble power into store at %.3g V over %d seeds (top %d by mean):\n",
			o.vc, o.seeds, o.topK)
		fmt.Fprint(w, batch.EnsembleTable(ranked))
		if o.verbose && len(points) > len(ranked) {
			fmt.Fprintf(w, "\nall %d design points (95%% CI half-widths):\n", len(points))
			fmt.Fprint(w, batch.EnsembleTable(points))
		}
	} else {
		fmt.Fprintf(w, "power into store at %.3g V (top %d):\n", o.vc, o.topK)
		fmt.Fprint(w, batch.Table(batch.Top(results, o.topK)))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, sum.String())
	if cacheStats != nil {
		cs := cacheStats
		fmt.Fprintf(w, "cache: %d hits (%d from disk, %d in-flight shares), %d misses, %d stale, %d evictions, %d entries\n",
			cs.Hits, cs.DiskHits, cs.Shared, cs.Misses, cs.Stale, cs.Evictions, cs.Entries)
		if o.verbose {
			total := cs.Hits + cs.Misses
			if total > 0 {
				fmt.Fprintf(w, "cache: %.1f%% hit rate over %d lookups (cold sweeps miss everything; a warm repeat hits everything)\n",
					100*float64(cs.Hits)/float64(total), total)
			}
		}
	}
	if sum.ArgMaxMetric >= 0 && o.seeds == 1 {
		best := results[sum.ArgMaxMetric]
		fmt.Fprintf(w, "\nbest design: %s -> %.1f uW\n", best.Name, best.Metric*1e6)
	}
	if len(ranked) > 0 && ranked[0].N > 0 {
		fmt.Fprintf(w, "\nbest design: %s -> %.1f +/- %.1f uW (95%% CI over %d seeds)\n",
			ranked[0].Group, ranked[0].Mean*1e6, ranked[0].CI95*1e6, ranked[0].N)
	}
	if sum.Failed > 0 {
		fmt.Fprintf(os.Stderr, "\n%d candidates failed:\n", sum.Failed)
		for _, r := range results {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "  %s: %v\n", r.Name, r.Err)
			}
		}
	}
	return sum.Failed
}

// runRemote submits the sweep to a server or coordinator and renders
// the streamed results with the same report the local mode prints. It
// returns a non-nil error — and renders nothing that could be mistaken
// for a successful sweep — whenever the stream is truncated (connection
// dropped, server killed mid-sweep, missing or duplicate results) or
// any job failed server-side; the caller turns that into a non-zero
// exit.
func runRemote(w io.Writer, o options) error {
	ctx, client := context.Background(), http.DefaultClient
	baseURL := strings.TrimRight(o.remote, "/")
	req := wire.SweepRequest{Spec: o.spec, Workers: o.workers}
	if o.trace {
		req.Trace = tracing.NewTraceID()
	}
	start := time.Now()
	acc, err := wire.Submit(ctx, client, baseURL, req)
	var refused *wire.ErrorDetail
	if errors.As(err, &refused) {
		// Every non-2xx carries the canonical envelope; surface its stable
		// code (and whether a retry can help) rather than raw HTTP noise.
		hint := ""
		if refused.Retryable {
			hint = "; retrying may succeed"
		}
		return fmt.Errorf("server refused sweep [%s]: %s%s", refused.Code, refused.Message, hint)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "design sweep: %d candidates on %s (job %s)\n", acc.Jobs, baseURL, acc.ID)

	// Reconstruct batch results from the NDJSON lines so the rendering
	// (ranking, ensembles, summary) is byte-for-byte the local one.
	results := make([]batch.Result, 0, acc.Jobs)
	summary, err := wire.ReadStream(ctx, client, baseURL+acc.StreamURL, func(r wire.Result) {
		results = append(results, wire.BatchResultOf(r))
	})
	if err != nil {
		return fmt.Errorf("stream failed after %d of %d results: %w (server killed mid-sweep?)",
			len(results), acc.Jobs, err)
	}
	if len(results) != acc.Jobs {
		return fmt.Errorf("stream truncated: received %d of %d results", len(results), acc.Jobs)
	}
	wall := time.Since(start)

	// Job-order results (the stream is completion-ordered). Every index
	// must land exactly once: with the count check above, a range or
	// duplicate violation means a hole would render as a silent zero row.
	ordered := make([]batch.Result, acc.Jobs)
	seen := make([]bool, acc.Jobs)
	for _, r := range results {
		if r.Index < 0 || r.Index >= acc.Jobs {
			return fmt.Errorf("stream result index %d outside [0, %d)", r.Index, acc.Jobs)
		}
		if seen[r.Index] {
			return fmt.Errorf("duplicate stream result for job %d", r.Index)
		}
		seen[r.Index] = true
		ordered[r.Index] = r
	}

	var cacheStats *wire.CacheStats
	if o.verbose {
		if resp, err := client.Get(baseURL + "/v1/cache/stats"); err == nil {
			var cs wire.CacheStats
			if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&cs) == nil {
				cacheStats = &cs
			}
			resp.Body.Close()
		}
	}
	fmt.Fprintf(w, "server: %d/%d cache hits (%d in-flight shares)\n",
		summary.CacheHits, summary.Jobs, summary.Shared)
	// A shard coordinator's summary carries fleet counters; a plain
	// worker omits them — -remote works against either transparently.
	if summary.Workers > 0 {
		noun := "workers"
		if summary.Workers == 1 {
			noun = "worker"
		}
		fmt.Fprintf(w, "fleet: %d %s", summary.Workers, noun)
		if summary.LostWorkers > 0 || summary.Resharded > 0 || summary.Retries > 0 {
			fmt.Fprintf(w, " (%d lost, %d jobs re-sharded, %d stream retries)",
				summary.LostWorkers, summary.Resharded, summary.Retries)
		}
		fmt.Fprintln(w)
	}
	failed := report(w, o, ordered, wall, cacheStats)
	if o.trace {
		// The stream's summary line means the sweep finished; the trace
		// endpoint seals moments later, and its replay blocks until then.
		var spans []tracing.Span
		if err := wire.ReadTrace(ctx, client, baseURL, acc.ID, func(s tracing.Span) {
			spans = append(spans, s)
		}); err != nil {
			fmt.Fprintf(w, "\ntrace: fetch failed: %v\n", err)
		} else {
			renderTrace(w, spans, o.traceTop)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed server-side", failed, acc.Jobs)
	}
	return nil
}
