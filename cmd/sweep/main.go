// Command sweep runs a scenario×seed grid of full simulations and
// reports lockstep-detector precision/recall/F1 per adversary scenario
// against each world's recorded ground truth — the executable form of
// the paper's Section 5.2 open question.
//
// Usage:
//
//	sweep [-base tiny|default|scale] [-scenarios a,b,c] [-seeds N] [-seed-base S]
//	      [-workers N] [-json FILE] [-list] [-quiet]
//	      [-log-level L] [-log-format text|json]
//	sweep -serve ADDR [-addr-file FILE] [-journal FILE] [-lease D] [-max-attempts N]
//	      [-pprof] [grid flags]
//
// A serving coordinator exposes its observability surface on the same
// address workers dial: GET /metrics (Prometheus text), /debug/vars
// (JSON snapshot), /v1/status (queue progress), and — with -pprof —
// /debug/pprof/.
//
// In the default mode every cell builds an isolated world (Workers=1)
// and taps its event-sourced run log online into the incremental
// detector; cells run concurrently up to -workers in this process.
//
// With -serve the process becomes the coordinator of a distributed
// sweep: it listens on ADDR, hands grid cells to sweepworker processes
// under time-bounded leases (reissuing cells whose worker crashes or
// hangs), cross-checks duplicate completions by result digest, and exits
// once the grid drains — producing stdout and -json output
// byte-identical to the in-process mode, because every cell is
// deterministic in (scenario, seed) and assembly is a pure function of
// the cell results.
//
// With -journal the coordinator's queue is write-ahead journaled to the
// named file: if the file already holds a journal for the same grid, the
// coordinator replays it on startup — re-adopting completed cells by
// digest and honoring still-live leases — and continues the sweep where
// its predecessor died. SIGINT/SIGTERM trigger a graceful drain: no new
// leases go out, in-flight workers finish or release their cells, the
// drain is journaled, and the process exits 0 (a successor resumes from
// the journal).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

func main() {
	base := flag.String("base", "tiny", "base world per cell: tiny, default, or scale")
	scenarios := flag.String("scenarios", "", "comma-separated scenario names (default: all registered)")
	seeds := flag.Int("seeds", 2, "seeds per scenario")
	seedBase := flag.Uint64("seed-base", 20190301, "first seed; cell i uses seed-base+i")
	workers := flag.Int("workers", 0, "concurrent grid cells (0 = GOMAXPROCS)")
	jsonOut := flag.String("json", "", "write the machine-readable grid result to this file")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress")
	serve := flag.String("serve", "", "coordinate a distributed sweep on this address (e.g. 127.0.0.1:0) instead of running in-process")
	addrFile := flag.String("addr-file", "", "with -serve: write the bound address to this file once listening")
	journal := flag.String("journal", "", "with -serve: write-ahead journal the work queue to this file (restart resumes the sweep)")
	lease := flag.Duration("lease", 30*time.Second, "with -serve: worker lease duration")
	maxAttempts := flag.Int("max-attempts", 5, "with -serve: lease grants per cell before the grid fails")
	pprofOn := flag.Bool("pprof", false, "with -serve: also mount net/http/pprof under /debug/pprof/")
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	logger, lerr := logFlags.Logger(os.Stderr)
	if lerr != nil {
		log.Fatalf("sweep: %v", lerr)
	}
	if *quiet {
		logger = obs.Discard()
	}

	if *list {
		for _, name := range scenario.Names() {
			sp, _ := scenario.Lookup(name)
			fmt.Printf("%-16s %s\n", name, sp.Description)
		}
		return
	}

	opts := sweep.Options{Base: *base, Workers: *workers}
	if *scenarios != "" {
		for _, name := range strings.Split(*scenarios, ",") {
			if name = strings.TrimSpace(name); name != "" {
				opts.Scenarios = append(opts.Scenarios, name)
			}
		}
	}
	for i := 0; i < *seeds; i++ {
		opts.Seeds = append(opts.Seeds, *seedBase+uint64(i))
	}
	opts.Log = logger

	// SIGINT/SIGTERM cancel the run context: the in-process grid stops
	// every cell at its next day barrier; the coordinator drains.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	var res *sweep.Result
	var err error
	if *serve != "" {
		res, err = coordinate(ctx, opts, *serve, *addrFile, *journal, *lease, *maxAttempts, logger, *pprofOn)
		if errors.Is(err, sweep.ErrDrained) {
			// A drained coordinator is a clean stop, not a failure: state is
			// journaled, a successor resumes the sweep. Exit 0 so service
			// managers treat the SIGTERM as honored.
			logger.Info("drained", "error", err)
			return
		}
	} else {
		res, err = sweep.RunCtx(ctx, opts)
	}
	if err != nil {
		log.Fatalf("sweep: %v", err)
	}
	logger.Info("grid complete", "elapsed", time.Since(start).Round(time.Millisecond).String())
	emit(res, *jsonOut, logger)
}

// coordinate runs the grid as a distributed-sweep coordinator: listen,
// publish the bound address, serve the work queue until the grid
// finishes — or, when ctx is cancelled (SIGTERM), until the in-flight
// leases settle and the drain is journaled (ErrDrained). The control
// endpoints share the listener with the observability surface:
// /metrics, /debug/vars, /debug/trace (and /debug/pprof/ with -pprof)
// ride the same address workers dial.
func coordinate(ctx context.Context, opts sweep.Options, addr, addrFile, journal string, lease time.Duration, maxAttempts int, logger *slog.Logger, pprofOn bool) (*sweep.Result, error) {
	co, err := sweep.NewCoordinator(opts, sweep.QueueConfig{Lease: lease, MaxAttempts: maxAttempts})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	co.RegisterMetrics(reg)
	if journal != "" {
		adopted, err := co.OpenJournal(journal, nil)
		if err != nil {
			return nil, err
		}
		defer co.Close()
		if adopted > 0 {
			logger.Info("journal replay adopted completed cells", "journal", journal, "adopted", adopted)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	bound := ln.Addr().String()
	p0 := co.Progress()
	logger.Info("coordinating distributed sweep", "addr", bound,
		"total", p0.Total, "done", p0.Done, "pending", p0.Pending)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return nil, err
		}
	}
	mux := http.NewServeMux()
	obs.Mount(mux, reg, nil, pprofOn)
	mux.Handle("/", co.Handler())
	srv := newServer(mux)
	go srv.Serve(ln)
	res, err := co.Run(ctx)
	// In-flight worker requests (final heartbeats, completions racing the
	// drain) finish before the listener closes; the short bound only caps
	// how long a stuck connection can hold up exit.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	if err != nil {
		return nil, err
	}
	p := co.Progress()
	logger.Info("grid drained", "cells", p.Done, "lease_grants", p.Attempts,
		"expiries", p.Expiries, "duplicates", p.Duplicates, "salvaged", p.Salvaged,
		"adopted", p.Adopted, "fenced", p.Fenced)
	return res, nil
}

// readHeaderTimeout bounds how long a connection may take to send a
// request header: a client that stalls mid-header is disconnected
// instead of holding a connection open for good.
const readHeaderTimeout = 5 * time.Second

// readTimeout bounds how long a connection may take to send a whole
// request, header and body. No coordinator endpoint waits on its client:
// each reads one small JSON body (at most a kilobyte or so, a megabyte
// by the decoder's bound) and answers at once, so a client that stalls
// mid-body is cut off here. The bound covers reading only; a handler that
// takes long to answer (a pprof profile) is not affected.
const readTimeout = 10 * time.Second

// newServer serves the coordinator's endpoints under its connection
// limits.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

// emit writes the human table, the degradation line, and the optional
// JSON file — identically for the in-process and distributed paths.
func emit(res *sweep.Result, jsonOut string, logger *slog.Logger) {
	report.WriteSweep(os.Stdout, res)

	if baseline, ok := res.Baseline(); ok {
		worstName, worst := "", 0.0
		for _, s := range res.Scenarios {
			if s.Name == baseline.Name {
				continue
			}
			if d := baseline.Recall - s.Recall; d > worst {
				worst, worstName = d, s.Name
			}
		}
		if worstName != "" {
			fmt.Printf("largest recall degradation vs paper-baseline: %s (-%.3f)\n", worstName, worst)
		}
	}

	if jsonOut != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatalf("sweep: %v", err)
		}
		if err := os.WriteFile(jsonOut, append(raw, '\n'), 0o644); err != nil {
			log.Fatalf("sweep: %v", err)
		}
		logger.Info("grid result written", "path", jsonOut)
	}
}
