// Command benchgate converts `go test -bench -benchmem` output into the
// repo's machine-readable benchmark format (internal/benchfmt) and gates
// it against a committed baseline, failing when ns/op or allocs/op
// regress beyond the tolerance. It is the CI benchmark-regression gate:
//
//	go test -run '^$' -bench 'Benchmark(Table1|Table2|BatchSweep)' \
//	    -benchmem . | tee bench.out
//	benchgate -parse bench.out -out bench.json          # snapshot
//	benchgate -parse bench.out -baseline BENCH_10.json  # gate (exit 1)
//
// Refresh the committed baseline after an intentional performance change
// with -write-baseline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"harvsim/internal/benchfmt"
)

func main() {
	var (
		parse     = flag.String("parse", "", "go-bench output file to convert ('-' = stdin)")
		out       = flag.String("out", "", "write the parsed/current report as JSON to this path")
		baseline  = flag.String("baseline", "", "baseline report to gate against")
		current   = flag.String("current", "", "current report JSON (alternative to -parse)")
		tol       = flag.Float64("tol", 0.20, "allowed fractional regression in ns/op and allocs/op")
		nsTol     = flag.Float64("ns-tol", 0, "override -tol for ns/op only (0 = use -tol); widen when the baseline machine and the runner differ, allocs/op stays strict")
		writeBase = flag.Bool("write-baseline", false, "overwrite -baseline with the current report instead of gating")
	)
	flag.Parse()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
		os.Exit(2)
	}

	var cur benchfmt.Report
	haveCur := false
	switch {
	case *parse != "" && *current != "":
		fail("-parse and -current are mutually exclusive")
	case *parse != "":
		var rd io.Reader
		if *parse == "-" {
			rd = os.Stdin
		} else {
			f, err := os.Open(*parse)
			if err != nil {
				fail("%v", err)
			}
			defer f.Close()
			rd = f
		}
		rep, err := benchfmt.ParseGoBench(rd)
		if err != nil {
			fail("parse: %v", err)
		}
		if len(rep.Benchmarks) == 0 {
			fail("no benchmark lines found in %s", *parse)
		}
		rep.GoVersion = runtime.Version()
		rep.Sort()
		cur, haveCur = rep, true
	case *current != "":
		rep, err := benchfmt.ReadFile(*current)
		if err != nil {
			fail("%v", err)
		}
		cur, haveCur = rep, true
	}

	if !haveCur {
		fail("nothing to do: need -parse or -current (see -help)")
	}
	if *out != "" {
		if err := cur.WriteFile(*out); err != nil {
			fail("%v", err)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(cur.Benchmarks), *out)
	}
	if *baseline == "" {
		return
	}
	if *writeBase {
		if err := cur.WriteFile(*baseline); err != nil {
			fail("%v", err)
		}
		fmt.Printf("benchgate: baseline %s refreshed (%d benchmarks)\n", *baseline, len(cur.Benchmarks))
		return
	}

	base, err := benchfmt.ReadFile(*baseline)
	if err != nil {
		fail("%v", err)
	}
	effNsTol := *tol
	if *nsTol > 0 {
		effNsTol = *nsTol
	}
	regressions, missing := benchfmt.CompareTol(base, cur, effNsTol, *tol)
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "benchgate: MISSING %s (present in baseline, absent in run)\n", name)
	}
	for _, r := range regressions {
		fmt.Fprintf(os.Stderr, "benchgate: REGRESSION %s\n", r)
	}
	if len(regressions) > 0 || len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — %d regression(s), %d missing vs %s (tol %.0f%%)\n",
			len(regressions), len(missing), *baseline, *tol*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — %d benchmarks within %.0f%% of %s\n",
		len(base.Benchmarks), *tol*100, *baseline)
}
