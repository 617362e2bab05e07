// Command visimd is the multi-tenant simulation daemon: a long-running
// HTTP service where POST /v1/sims creates a named simulation from a
// versioned internal/spec document, and further endpoints step it, run it
// in the background, inject faults, stream events and per-virtual-node
// availability, and checkpoint/restore it. See internal/service for the
// endpoint reference and README "Running visimd" for a curl quickstart.
//
//	visimd -addr 127.0.0.1:8080 -state ./visimd-state
//
// With -state, every sim's effective spec (and any POSTed checkpoints)
// persist across daemon restarts: a visimd rebooted on the same directory
// rebuilds its tenants and resumes each from its latest checkpoint; a
// tenant whose files are damaged is set aside (*.damaged, one "quarantined"
// line on stderr) and the rest boot without it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vinfra/internal/cli"
	"vinfra/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	state := flag.String("state", "", "state directory for spec + checkpoint persistence (empty = in-memory only)")
	var profile cli.Profile
	profile.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "visimd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	profiler, err := profile.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "visimd: %v\n", err)
		os.Exit(2)
	}
	defer profiler.Stop()

	svc, err := service.New(service.Options{StateDir: *state})
	if err != nil {
		fmt.Fprintf(os.Stderr, "visimd: %v\n", err)
		profiler.Stop()
		os.Exit(1)
	}
	for _, q := range svc.Quarantined() {
		fmt.Fprintf(os.Stderr, "visimd: quarantined %s\n", q)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "visimd: %v\n", err)
		profiler.Stop()
		os.Exit(1)
	}
	// The "listening" line is the readiness signal scripts wait for; it is
	// printed only after the port is bound.
	fmt.Fprintf(os.Stderr, "visimd: listening on http://%s\n", ln.Addr())

	// A client that stalls mid-headers or parks an idle keep-alive must not
	// hold a connection forever; bodies are bounded by the handlers, and a
	// synchronous step may legitimately take minutes, so reads and writes of
	// an accepted request carry no deadline.
	srv := &http.Server{Handler: svc, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "visimd: %v, shutting down\n", sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "visimd: %v\n", err)
		svc.Close()
		profiler.Stop()
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "visimd: shutdown: %v\n", err)
	}
	svc.Close()
}
