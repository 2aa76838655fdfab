// Package core implements the paper's measurement methodology end to end:
// the Section 3 honey-app experiment (purchasing incentivized installs and
// measuring delivery, engagement, and automation), the Section 4 in-the-
// wild monitoring pipeline (UI fuzzer + recording proxy + Play Store
// crawler), and the analyses that regenerate every table and figure of the
// evaluation. The package consumes the synthetic world through exactly the
// interfaces the authors had against the live ecosystem: offer-wall HTTP
// traffic, the store's public crawl surface, the developer console of apps
// the researchers own, and a Crunchbase snapshot.
//
// The study speaks HTTP to those surfaces without sockets: the store API,
// the offer walls and the honey app's telemetry backend are served
// in-process (internal/httpmem), and the milker's recording proxy is the
// phone's http.RoundTripper. Requests, responses and proxy capture are
// those of the loopback deployment that cmd/milker and cmd/storectl run.
package core

import (
	"context"
	"fmt"
	"log/slog"

	"repro/internal/crawler"
	"repro/internal/dates"
	"repro/internal/fault"
	"repro/internal/httpmem"
	"repro/internal/iip"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/playapi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Options tune the study run.
type Options struct {
	// MilkEveryDays is the offer-wall milking period (the crawler itself
	// always runs every other day, as in the paper).
	MilkEveryDays int
	// SkipHoney disables the Section 3 experiment.
	SkipHoney bool
	// Log, when non-nil, receives the study's progress messages.
	Log *slog.Logger

	// EventLogPath, when set, streams the run's event-sourced log to this
	// file (DESIGN.md E6). On resume the file is truncated to the
	// checkpoint's offset and appended, leaving bytes identical to an
	// uninterrupted run.
	EventLogPath string
	// SegmentBytes, when > 0, sets the event log's segment-rotation
	// threshold (stream.Writer.SetSegmentBytes): a segment index frame
	// with an embedded checkpoint is written at the first day boundary
	// after each SegmentBytes bytes, making the log seekable with
	// `runlog seek` / stream.ReplayDay, which replays one segment of
	// events after one walk of the settle records before it. Ignored on
	// resume — the checkpoint carries the original run's segmentation
	// state, which must govern for the appended bytes to stay identical.
	SegmentBytes int64
	// CheckpointPath, when set, atomically (re)writes a day-boundary
	// checkpoint there every CheckpointEvery days (<= 0: every day).
	CheckpointPath  string
	CheckpointEvery int
	// ResumePath continues a killed run from the named checkpoint. The
	// config must match the original run. The Section 3 honey experiment
	// is skipped (its effects are already inside the checkpointed state;
	// its report exists only in the original run's output). The world
	// state and the event log continue exactly; the crawler/milker
	// observation datasets, however, are rebuilt fresh and cover only the
	// remaining days (plus a final-day pass when nothing remains), so the
	// Section 4/5 report tables of a resumed run are computed from that
	// shorter observation window — replay the event log when the full
	// stream is needed.
	ResumePath string
	// Fault, when non-nil, injects write faults into the event log below
	// its buffer, at the depth where a crash mid-write tears the file
	// (chaos testing).
	Fault *fault.Injector

	// Obs, when non-nil, receives the run's metrics: day-engine phase
	// timings and event counts (sim_*) plus run-log writer throughput
	// (runlog_*). Trace, when non-nil, records per-day phase spans.
	// Both are pure observation — results, log bytes, and checkpoints are
	// bit-identical with or without them (DESIGN.md E11).
	Obs   *obs.Registry
	Trace *obs.Tracer
}

func (o *Options) log(format string, args ...any) {
	if o.Log != nil {
		o.Log.Info(fmt.Sprintf(format, args...))
	}
}

// Study couples a world with its measurement infrastructure and results.
type Study struct {
	World   *sim.World
	Opts    Options
	Milker  *monitor.Milker
	Crawler *crawler.Crawler

	Results Results

	// surfaces serves the study's HTTP handlers in-process.
	surfaces httpmem.Transport
}

// Results aggregates every reproduced artifact.
type Results struct {
	RunStats sim.RunStats

	Dataset DatasetSummary

	Table1 []Table1Row
	Table2 []Table2Row
	Table3 []Table3Row
	Table4 []Table4Row
	Table5 GroupOutcome
	Table6 GroupOutcome
	Table7 GroupOutcome
	Table8 Table8

	Figure2 []Figure2Row
	Figure4 []stats.HistogramBin
	Figure5 []CaseStudy
	Figure6 Figure6

	Section3    *HoneyResults
	Enforcement EnforcementResult
	Arbitrage   ArbitrageResult

	// Lockstep is the Section 5.2 proposed-defense evaluation.
	Lockstep LockstepResult
	// Disclosure is the Section 5.1 responsible-disclosure contact list
	// (advertised apps with 5M+ installs).
	Disclosure []DisclosureRow
}

// DatasetSummary captures the headline dataset sizes (922 apps, 2,126
// offers, 1,128 unique descriptions in the paper).
type DatasetSummary struct {
	Offers             int
	UniqueApps         int
	UniqueDescriptions int
	MilkDays           int
	CrawlDays          int
}

// Run executes the full study against a fresh world built from cfg.
func Run(cfg sim.Config, opts Options) (*Study, error) {
	return RunCtx(context.Background(), cfg, opts)
}

// RunCtx is Run with cancellation: cancelling ctx stops the day loop at
// the next day barrier — after the day's log frames are flushed and,
// when checkpointing is configured, with a final checkpoint written — so
// an interrupted study is resumable via ResumePath exactly like a
// crashed one, minus the salvage. The returned error wraps ctx's error.
func RunCtx(ctx context.Context, cfg sim.Config, opts Options) (*Study, error) {
	if opts.MilkEveryDays <= 0 {
		opts.MilkEveryDays = 4
	}
	opts.log("building world (seed %d)", cfg.Seed)
	world, err := sim.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	s := &Study{World: world, Opts: opts}

	runOpts := sim.RunOptions{Context: ctx, Metrics: sim.NewMetrics(opts.Obs, opts.Trace)}
	if opts.ResumePath != "" {
		cp, err := stream.ReadCheckpointFile(opts.ResumePath)
		if err != nil {
			return nil, fmt.Errorf("core: reading resume checkpoint: %w", err)
		}
		// Restore before wiring the HTTP facade: the store pointer the
		// facade serves must be the restored one — and validate the
		// checkpoint against the rebuilt world before anything
		// destructive (the event-log truncation below) can happen.
		if err := world.Restore(cp); err != nil {
			return nil, fmt.Errorf("core: restoring checkpoint: %w", err)
		}
		if err := world.ValidateResume(cp); err != nil {
			return nil, fmt.Errorf("core: refusing to resume: %w", err)
		}
		opts.log("resuming after %s (day %d of the window, log offset %d)",
			cp.Day, cp.Days, cp.LogOffset)
		runOpts.Resume = cp
		opts.SkipHoney = true
		s.Opts = opts
	}

	s.startInfrastructure()

	if !opts.SkipHoney {
		opts.log("running honey-app experiment (Section 3)")
		honey, err := s.runHoneyExperiment()
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("core: honey experiment: %w", err)
		}
		s.Results.Section3 = honey
	}

	// The run log opens after any pre-run activity (honey campaigns) so
	// the base snapshot matches the state the day loop starts from.
	var runLog *sim.RunLogFile
	if opts.EventLogPath != "" {
		if runLog, err = world.OpenRunLogFile(opts.EventLogPath, runOpts.Resume, opts.Fault); err != nil {
			s.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
		runOpts.Log = runLog.Log
		if runOpts.Resume == nil && opts.SegmentBytes > 0 {
			runLog.Log.SetSegmentBytes(opts.SegmentBytes)
		}
		runLog.Log.SetMetrics(stream.NewWriterMetrics(opts.Obs))
	}
	if opts.CheckpointPath != "" {
		runOpts.CheckpointEvery = opts.CheckpointEvery
		runOpts.Checkpoint = runLog.Checkpoint(opts.CheckpointPath)
	}

	opts.log("running %d-day study window", world.Cfg.Window.Days())
	start := world.Cfg.Window.Start
	runOpts.Hook = func(day dates.Date) error {
		if err := s.Crawler.MaybeCrawl(day); err != nil {
			return err
		}
		if day.DaysSince(start)%opts.MilkEveryDays == 0 {
			if err := s.Milker.MilkDay(day); err != nil {
				return err
			}
		}
		return nil
	}
	runStats, err := world.RunOpts(runOpts)
	if runLog != nil {
		if cerr := runLog.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("core: running world: %w", err)
	}
	s.Results.RunStats = runStats

	// A resumed study rebuilds its crawler/milker fresh, so their datasets
	// cover only the post-resume days (documented on ResumePath). When the
	// checkpoint sat at (or near) the window end either pipeline may have
	// observed nothing — the crawler crawls the first post-resume day but
	// the milking cadence can miss every remaining day — so each empty
	// dataset independently gets one final-day pass, keeping the analyses
	// running against the restored world instead of failing.
	if runOpts.Resume != nil {
		end := world.Cfg.Window.End
		if len(s.Crawler.Dataset().Days()) == 0 {
			if err := s.Crawler.CrawlNow(end); err != nil {
				s.Close()
				return nil, fmt.Errorf("core: post-resume crawl: %w", err)
			}
		}
		if len(s.Milker.Offers()) == 0 {
			if err := s.Milker.MilkDay(end); err != nil {
				s.Close()
				return nil, fmt.Errorf("core: post-resume milking: %w", err)
			}
		}
	}

	opts.log("analyzing")
	if err := s.analyze(); err != nil {
		s.Close()
		return nil, fmt.Errorf("core: analysis: %w", err)
	}
	return s, nil
}

// RunHoneyOnly builds a world and runs just the Section 3 honey-app
// experiment (no monitoring, crawling, or impact analyses).
func RunHoneyOnly(cfg sim.Config) (*Study, error) {
	world, err := sim.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	s := &Study{World: world}
	defer s.Close()
	honey, err := s.runHoneyExperiment()
	if err != nil {
		return nil, fmt.Errorf("core: honey experiment: %w", err)
	}
	s.Results.Section3 = honey
	return s, nil
}

// startInfrastructure serves the store facade and the per-IIP offer
// walls, and wires the milker and the crawler to them.
func (s *Study) startInfrastructure() {
	playURL := s.surfaces.Serve(playapi.New(s.World.Store, s.World.APKs).Handler())

	// One offer-wall server per platform, all sharing the affiliate
	// point-rate table.
	rates := map[string]float64{}
	for _, a := range s.World.Affiliates {
		rates[a.Package] = a.PointsPerUSD
	}
	endpoints := map[string]string{}
	for _, p := range s.World.PlatformsSorted() {
		endpoints[p.Name] = s.surfaces.Serve(iip.NewServer(p, rates).Handler())
	}
	s.Milker = monitor.NewMilkerWithTransport(s.World.Affiliates, endpoints, &s.surfaces)

	targets := make([]string, 0, len(s.World.Advertised)+len(s.World.Baseline))
	for _, a := range s.World.Advertised {
		targets = append(targets, a.Package)
	}
	targets = append(targets, s.World.Baseline...)
	s.Crawler = crawler.NewWithTransport(playURL, targets, &s.surfaces)
}

// Close releases the milker and the world. Run leaves the study's HTTP
// surfaces served so callers can keep re-deriving artifacts (NewAnalysis,
// Figure 6 APK downloads) against them; call Close when done.
func (s *Study) Close() {
	if s.Milker != nil {
		s.Milker.Close()
	}
	if s.World != nil {
		s.World.Close()
	}
}
