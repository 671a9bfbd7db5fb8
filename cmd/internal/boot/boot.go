// Package boot is the process shell the two service binaries share
// (cmd/serve, cmd/coord): command-line parsing, the optional pprof
// mount, the alert loop and the listen/print/serve sequence.
package boot

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"harvsim/internal/tracing"
)

// Parse parses the command line, with a usage text of head, the flag
// defaults and footer, and exits 2 on positional arguments.
func Parse(name, head, footer string) {
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), head)
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), footer)
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected arguments: %v\n", name, flag.Args())
		flag.Usage()
		os.Exit(2)
	}
}

// Options says how a service binary is served.
type Options struct {
	// Name prefixes the binary's stderr lines ("serve", "coord").
	Name string
	// Addr is the listen address; port 0 picks a free port.
	Addr string
	// Pprof mounts net/http/pprof under /debug/pprof/ on the service mux.
	Pprof bool
	// Alerts is the service's threshold watcher, polled every AlertEvery
	// (0 = 10s); each alert it fires is printed to stderr.
	Alerts     *tracing.Alerts
	AlertEvery time.Duration
	// Banner lines are printed after "listening on <addr>".
	Banner []string
}

// Serve runs h on opt.Addr until the listener fails.
func Serve(h http.Handler, opt Options) error {
	opt.Alerts.Notify(func(a tracing.Alert) {
		fmt.Fprintf(os.Stderr, "%s: ALERT %s: value %g reached bound %g at %s\n",
			opt.Name, a.Name, a.Value, a.Bound, a.At.Format(time.RFC3339))
	})
	go opt.Alerts.Run(context.Background(), opt.AlertEvery)

	// -pprof shares the service mux: profiling lives next to /metrics on
	// the one listener, off by default so a production service exposes
	// no profiling surface unless asked to.
	if opt.Pprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", h)
		h = mux
	}

	ln, err := net.Listen("tcp", opt.Addr)
	if err != nil {
		return err
	}
	// Printed (not logged) so scripts can capture the resolved address
	// when Addr used port 0.
	fmt.Printf("listening on %s\n", ln.Addr())
	for _, line := range opt.Banner {
		fmt.Println(line)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
