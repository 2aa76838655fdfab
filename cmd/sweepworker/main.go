// Command sweepworker is one worker process of a distributed sweep: it
// leases grid cells from a sweep -serve coordinator, runs each cell's
// full simulation with the run log and day-boundary checkpoints spooled
// to disk, heartbeats at every day barrier, and reports completions.
//
// Usage:
//
//	sweepworker -coordinator URL [-name N] [-spool DIR] [-checkpoint-every D]
//	            [-crash point=N,...] [-fault-write P[:SEED]] [-quiet]
//	            [-log-level L] [-log-format text|json] [-metrics-addr ADDR] [-pprof]
//
// A killed worker loses nothing durable: its lease expires, the
// coordinator reissues the cell, and the successor worker (pointed at
// the same -spool) salvages the torn run log, restores the last
// checkpoint, and resumes the cell instead of restarting it.
//
// SIGINT/SIGTERM stop the worker gracefully: a cell in flight finishes
// its current day, checkpoints its spool, and releases its lease with a
// transient failure so the coordinator reissues it immediately — the
// successor RESUMES from the checkpoint rather than waiting out the
// lease and restarting. Exit code 0 means the grid drained or the
// worker was gracefully stopped; fault.CrashExitCode (3) means a
// planned -crash point fired (chaos harnesses loop on it); anything
// else is a real failure.
//
// -crash arms deterministic process kills at named execution points
// ("worker-lease", "cell-day", "cell-complete" — e.g. -crash
// cell-day=29 dies at the 29th day boundary this process executes); the
// FAULT_CRASH environment variable is an alternative spelling.
// -fault-write injects seeded write failures with torn prefixes into the
// spooled run log, exercising stream.Recover on the next incarnation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/fault"
	"repro/internal/lockstep"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL (e.g. http://127.0.0.1:7077) or ADDR[:PORT]")
	name := flag.String("name", fmt.Sprintf("pid%d", os.Getpid()), "worker name for log lines")
	spool := flag.String("spool", "", "directory for per-cell run logs and checkpoints (default: a temp dir, losing crash-resume across restarts)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "days between spooled checkpoints (<=1 = every day)")
	crash := flag.String("crash", "", "comma-separated crash plan point=N (points: worker-lease, cell-day, cell-complete)")
	faultWrite := flag.String("fault-write", "", "inject write faults into spooled logs: probability[:seed]")
	quiet := flag.Bool("quiet", false, "suppress progress lines")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/trace on this address (e.g. 127.0.0.1:0)")
	pprofOn := flag.Bool("pprof", false, "with -metrics-addr: also mount net/http/pprof under /debug/pprof/")
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("sweepworker: ")

	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	if *quiet {
		logger = obs.Discard()
	}
	logger = logger.With("worker", *name)

	if *coordinator == "" {
		log.Fatal("-coordinator is required")
	}
	base := *coordinator
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")

	if *crash != "" {
		plan, err := fault.ParseCrashPlan(*crash)
		if err != nil {
			log.Fatal(err)
		}
		fault.Crash = plan
	} else if err := fault.ArmCrashFromEnv(); err != nil {
		log.Fatal(err)
	}

	injector, err := fault.ParseWriteFaults(*faultWrite)
	if err != nil {
		log.Fatalf("-fault-write: %v", err)
	}

	spoolDir := *spool
	if spoolDir == "" {
		dir, err := os.MkdirTemp("", "sweepworker-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		spoolDir = dir
	} else if err := os.MkdirAll(spoolDir, 0o755); err != nil {
		log.Fatal(err)
	}

	reg := obs.NewRegistry()
	wm := sweep.NewWorkerMetrics(reg)
	wk := &sweep.Worker{
		Client: &sweep.Client{BaseURL: base, RetryCounter: wm.Retries},
		Name:   *name,
		Runner: sweep.CellRunner{
			SpoolDir:        spoolDir,
			CheckpointEvery: *checkpointEvery,
			Fault:           injector,
			Detector:        lockstep.NewMetrics(reg),
		},
		Log:     logger,
		Metrics: wm,
	}
	if *metricsAddr != "" {
		bound, shutdown, err := obs.Serve(*metricsAddr, reg, nil, *pprofOn)
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown(context.Background())
		logger.Info("metrics listening", "addr", bound)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := wk.Run(ctx); err != nil {
		switch {
		case sweep.IsInjected(err):
			// An injected fault is this process's planned death: exit with
			// the crash code so harness restart loops treat it like a kill.
			logger.Warn("injected fault", "error", err)
			os.Exit(fault.CrashExitCode)
		case errors.Is(err, context.Canceled):
			// Graceful stop: the in-flight cell checkpointed at its day
			// barrier and its lease was released for a successor to resume.
			logger.Info("stopped gracefully", "error", err)
			return
		}
		log.Fatal(err)
	}
}
