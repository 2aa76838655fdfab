// Command incentstudy runs the full reproduction of "Understanding
// Incentivized Mobile App Installs on Google Play Store" (IMC '20) against
// the synthetic ecosystem and prints every table and figure of the paper's
// evaluation.
//
// Usage:
//
//	incentstudy [-seed N] [-tiny] [-scale] [-massive] [-apps N] [-devices N] [-days N]
//	            [-workers N] [-install-log-window N] [-milk-every D] [-skip-honey] [-quiet]
//	            [-events run.log] [-checkpoint run.ckpt] [-checkpoint-every N] [-resume run.ckpt]
//	            [-fault-write P[:SEED]] [-log-level L] [-log-format text|json]
//	            [-metrics-addr ADDR] [-pprof] [-trace-out FILE]
//
// With -metrics-addr the run serves GET /metrics (Prometheus text),
// /debug/vars (JSON snapshot), and /debug/trace (run-phase spans) while
// it executes; -pprof additionally mounts net/http/pprof. -trace-out
// writes the final run-phase trace (one line per recorded span) to a
// file at exit. Observation is provably off the deterministic path:
// results, the run log, and checkpoints are bit-identical with these
// flags on or off (see DESIGN.md E11).
//
// With -events the run streams its event-sourced log (installs, clicks,
// postbacks, settlements, enforcement, chart snapshots) to a file that
// cmd/runlog can cat/stats/verify and that stream.Replay rebuilds the
// world from. With -checkpoint the run leaves a resumable day-boundary
// checkpoint; after a crash, rerun with the same size/seed flags plus
// -resume (and the same -events path, which is truncated to the
// checkpoint and appended byte-identically).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/offers"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	seed := flag.Uint64("seed", 0, "override the world seed (0 = calibrated default)")
	tiny := flag.Bool("tiny", false, "run the small smoke-test world instead of the full study")
	scale := flag.Bool("scale", false, "run the ~20x throughput-test world (see sim.ScaleConfig)")
	massive := flag.Bool("massive", false, "run the ~100k-app / ~1M-device world (see sim.MassiveConfig; spills the install log to disk)")
	apps := flag.Int("apps", 0, "total catalog size: background apps absorb the difference over the calibrated baseline+advertised populations (0 = base config)")
	devices := flag.Int("devices", 0, "total crowd-worker devices across the seven IIP pools (0 = base config)")
	days := flag.Int("days", 0, "monitored window length in days (0 = base config)")
	workers := flag.Int("workers", 0, "day-engine worker pool size (0 = GOMAXPROCS; results are identical for any value)")
	installLogWindow := flag.Int("install-log-window", -1, "bound the resident install log to this many records, spilling the rest to disk (0 = fully in RAM; -1 = config default; results are identical for any value)")
	milkEvery := flag.Int("milk-every", 4, "days between offer-wall milking runs")
	skipHoney := flag.Bool("skip-honey", false, "skip the Section 3 honey-app experiment")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	dumpOffers := flag.String("dump-offers", "", "write the milked offer dataset to this CSV file (the paper's shared-data analogue)")
	events := flag.String("events", "", "stream the event-sourced run log to this file (inspect with cmd/runlog)")
	segmentBytes := flag.Int64("segment-bytes", 0, "event-log segment rotation threshold in bytes (0 = 64MiB default; ignored on resume)")
	checkpoint := flag.String("checkpoint", "", "write a resumable day-boundary checkpoint to this file")
	checkpointEvery := flag.Int("checkpoint-every", 7, "days between checkpoints (each checkpoint re-encodes full run state; see DESIGN.md E6)")
	resume := flag.String("resume", "", "resume a killed run from this checkpoint (same seed/size flags required)")
	faultWrite := flag.String("fault-write", "", "inject torn writes into the event log (chaos testing): probability[:seed]; the run dies with exit code 3 when one fires")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/trace on this address while the run executes (e.g. 127.0.0.1:0)")
	pprofOn := flag.Bool("pprof", false, "with -metrics-addr: also mount net/http/pprof under /debug/pprof/")
	traceOut := flag.String("trace-out", "", "write the final run-phase trace to this file at exit")
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	logger, lerr := logFlags.Logger(os.Stderr)
	if lerr != nil {
		log.Fatalf("incentstudy: %v", lerr)
	}
	if *quiet {
		logger = obs.Discard()
	}

	nBase := 0
	for _, on := range []bool{*tiny, *scale, *massive} {
		if on {
			nBase++
		}
	}
	if nBase > 1 {
		log.Fatal("incentstudy: -tiny, -scale, and -massive are mutually exclusive")
	}
	cfg := sim.DefaultConfig()
	if *tiny {
		cfg = sim.TinyConfig()
	}
	if *scale {
		cfg = sim.ScaleConfig()
	}
	if *massive {
		cfg = sim.MassiveConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *apps > 0 || *devices > 0 || *days > 0 {
		if err := cfg.Resize(*apps, *devices, *days); err != nil {
			log.Fatalf("incentstudy: %v", err)
		}
	}
	cfg.Workers = *workers
	if *installLogWindow >= 0 {
		cfg.InstallLogWindow = *installLogWindow
	}

	opts := core.Options{
		MilkEveryDays:   *milkEvery,
		SkipHoney:       *skipHoney,
		EventLogPath:    *events,
		SegmentBytes:    *segmentBytes,
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *checkpointEvery,
		ResumePath:      *resume,
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.DefaultTraceCap)
	opts.Log, opts.Obs, opts.Trace = logger, reg, tr
	inj, err := fault.ParseWriteFaults(*faultWrite)
	if err != nil {
		log.Fatalf("incentstudy: -fault-write: %v", err)
	}
	opts.Fault = inj
	if *metricsAddr != "" {
		bound, shutdown, err := obs.Serve(*metricsAddr, reg, tr, *pprofOn)
		if err != nil {
			log.Fatalf("incentstudy: %v", err)
		}
		defer shutdown(context.Background())
		logger.Info("metrics listening", "addr", bound)
	}

	// SIGINT/SIGTERM stop the run at its next day barrier with the event
	// log flushed and (when -checkpoint is set) a final checkpoint
	// written: the interrupted run resumes with -resume like a crashed
	// one, minus the torn-tail salvage.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	study, err := core.RunCtx(ctx, cfg, opts)
	if err != nil {
		if errors.Is(err, fault.ErrInjected) {
			// The injected fault is this run's simulated crash: exit with
			// the crash code so chaos restart loops recognize it, leaving
			// the torn log + checkpoint for the -resume successor.
			log.Printf("incentstudy: injected fault: %v", err)
			os.Exit(fault.CrashExitCode)
		}
		if errors.Is(err, context.Canceled) {
			log.Printf("incentstudy: interrupted: %v", err)
			if *checkpoint != "" {
				log.Printf("incentstudy: resume with -resume %s (same seed/size flags)", *checkpoint)
			}
			return
		}
		log.Fatalf("incentstudy: %v", err)
	}
	defer study.Close()
	logger.Info("study complete",
		"elapsed", time.Since(start).Round(time.Millisecond).String(),
		"organic_installs", study.Results.RunStats.OrganicInstalls,
		"incentivized_installs", study.Results.RunStats.IncentivizedInstalls)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("incentstudy: %v", err)
		}
		if err := tr.Dump(f); err != nil {
			log.Fatalf("incentstudy: writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("incentstudy: writing trace: %v", err)
		}
		logger.Info("run-phase trace written", "path", *traceOut, "spans", len(tr.Spans()), "recorded", tr.Total())
	}
	report.WriteAll(os.Stdout, &study.Results)
	fmt.Printf("ledger conservation: sum = %.6f (0 means no money created or destroyed)\n",
		study.World.Ledger.Sum())

	if *dumpOffers != "" {
		f, err := os.Create(*dumpOffers)
		if err != nil {
			log.Fatalf("incentstudy: %v", err)
		}
		defer f.Close()
		if err := offers.WriteCSV(f, study.Milker.Offers()); err != nil {
			log.Fatalf("incentstudy: dumping offers: %v", err)
		}
		logger.Info("offer dataset written", "path", *dumpOffers)
	}
}
