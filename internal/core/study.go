// Package core implements the paper's measurement methodology end to end:
// the Section 3 honey-app experiment (purchasing incentivized installs and
// measuring delivery, engagement, and automation), the Section 4 in-the-
// wild monitoring pipeline (UI fuzzer + recording proxy + Play Store
// crawler), and the analyses that regenerate every table and figure of the
// evaluation. The package consumes the synthetic world through exactly the
// interfaces the authors had against the live ecosystem: offer-wall HTTP
// traffic, the store's public crawl surface, the developer console of apps
// the researchers own, and a Crunchbase snapshot.
package core

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/crawler"
	"repro/internal/dates"
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
	// Verbose emits progress via the Logf callback.
	Logf func(format string, args ...any)

	// EventLogPath, when set, streams the run's event-sourced log to this
	// file (DESIGN.md E6). On resume the file is truncated to the
	// checkpoint's offset and appended, leaving bytes identical to an
	// uninterrupted run.
	EventLogPath string
	// SegmentBytes, when > 0, sets the event log's segment-rotation
	// threshold (stream.Writer.SetSegmentBytes): a segment index frame
	// with an embedded checkpoint is written at the first day boundary
	// after each SegmentBytes bytes, making the log seekable with
	// `runlog seek` / stream.ReplayDay at O(segment) cost. Ignored on
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
	// WrapEventLog, when non-nil, wraps the event log's file writer below
	// the buffering layer — the hook the chaos harness uses to inject
	// torn writes (fault.Injector.Writer) at the same depth a real crash
	// mid-write would tear the file.
	WrapEventLog func(io.Writer) io.Writer

	// Obs, when non-nil, receives the run's metrics: day-engine phase
	// timings and event counts (sim_*) plus run-log writer throughput
	// (runlog_*). Trace, when non-nil, records per-day phase spans.
	// Both are pure observation — results, log bytes, and checkpoints are
	// bit-identical with or without them (DESIGN.md E11).
	Obs   *obs.Registry
	Trace *obs.Tracer
}

func (o *Options) log(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Study couples a world with its measurement infrastructure and results.
type Study struct {
	World   *sim.World
	Opts    Options
	Milker  *monitor.Milker
	Crawler *crawler.Crawler

	Results Results

	servers []*http.Server
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

	if err := s.startInfrastructure(); err != nil {
		s.Close()
		return nil, err
	}

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
	var flushLog func() error
	if opts.EventLogPath != "" {
		log, flush, closeLog, err := s.openRunLog(runOpts.Resume)
		if err != nil {
			s.Close()
			return nil, err
		}
		defer closeLog()
		runOpts.Log = log
		flushLog = flush
	}
	if opts.CheckpointPath != "" {
		runOpts.CheckpointEvery = opts.CheckpointEvery
		runOpts.Checkpoint = func(cp *stream.Checkpoint) error {
			// Durability order: the log bytes the checkpoint's offset
			// points at must be on disk before the checkpoint exists, or a
			// hard crash between buffer flushes leaves a checkpoint no
			// successor can resume from.
			if flushLog != nil {
				if err := flushLog(); err != nil {
					return err
				}
			}
			return stream.WriteCheckpointFile(opts.CheckpointPath, cp)
		}
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

// openRunLog opens the event log file: created fresh for a new run, or —
// when resuming — truncated to the checkpoint's offset and appended so
// the resulting bytes are identical to an uninterrupted run's log. The
// returned flush pushes the buffered bytes to disk and syncs the file (the
// checkpoint callback calls it so checkpoints never reference unwritten
// bytes).
func (s *Study) openRunLog(resume *stream.Checkpoint) (log *stream.Writer, flush func() error, closeLog func(), err error) {
	path := s.Opts.EventLogPath
	if resume == nil {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: creating event log: %w", err)
		}
		bw := bufio.NewWriterSize(s.wrapEventLog(f), 1<<20)
		log, err := s.World.NewRunLog(bw)
		if err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("core: opening event log: %w", err)
		}
		if s.Opts.SegmentBytes > 0 {
			log.SetSegmentBytes(s.Opts.SegmentBytes)
		}
		log.SetMetrics(stream.NewWriterMetrics(s.Opts.Obs))
		return log, syncLog(bw, f), func() { bw.Flush(); f.Close() }, nil
	}
	if resume.LogOffset == 0 {
		return nil, nil, nil, fmt.Errorf("core: checkpoint was taken without an event log; start a fresh log instead of resuming %s", path)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: opening event log for resume: %w", err)
	}
	if fi, err := f.Stat(); err != nil || fi.Size() < resume.LogOffset {
		f.Close()
		return nil, nil, nil, fmt.Errorf("core: event log shorter than checkpoint offset %d (err=%v)", resume.LogOffset, err)
	}
	// Refuse to truncate a file that is not this run's log: the prefix
	// must carry a readable header whose seed and window match the world.
	hdr, ok, err := stream.NewTail(f).Header()
	if err != nil || !ok {
		f.Close()
		return nil, nil, nil, fmt.Errorf("core: %s is not a run log for this world (header unreadable: %v)", path, err)
	}
	if hdr.Seed != s.World.Cfg.Seed || hdr.WindowStart != s.World.Cfg.Window.Start || hdr.WindowEnd != s.World.Cfg.Window.End {
		f.Close()
		return nil, nil, nil, fmt.Errorf("core: %s belongs to a different run (seed %d window %s..%s, want seed %d window %s..%s)",
			path, hdr.Seed, hdr.WindowStart, hdr.WindowEnd,
			s.World.Cfg.Seed, s.World.Cfg.Window.Start, s.World.Cfg.Window.End)
	}
	if err := f.Truncate(resume.LogOffset); err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("core: truncating event log at checkpoint: %w", err)
	}
	if _, err := f.Seek(resume.LogOffset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("core: seeking event log: %w", err)
	}
	bw := bufio.NewWriterSize(s.wrapEventLog(f), 1<<20)
	log = s.World.ResumeRunLog(bw, resume)
	log.SetMetrics(stream.NewWriterMetrics(s.Opts.Obs))
	return log, syncLog(bw, f), func() { bw.Flush(); f.Close() }, nil
}

// syncLog returns the run log's flush: the buffered bytes go to the file
// and the file is synced, so they are on disk, not just in the page
// cache, before a checkpoint that points past them is written.
func syncLog(bw *bufio.Writer, f *os.File) func() error {
	return func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}
}

func (s *Study) wrapEventLog(w io.Writer) io.Writer {
	if s.Opts.WrapEventLog == nil {
		return w
	}
	return s.Opts.WrapEventLog(w)
}

// startInfrastructure brings up the store facade, the per-IIP offer-wall
// servers, the milker, and the crawler.
func (s *Study) startInfrastructure() error {
	// Play Store HTTP surface.
	playURL, err := s.serve(playapi.New(s.World.Store, s.World.APKs).Handler())
	if err != nil {
		return fmt.Errorf("core: starting store API: %w", err)
	}

	// One offer-wall server per platform, all sharing the affiliate
	// point-rate table.
	rates := map[string]float64{}
	for _, a := range s.World.Affiliates {
		rates[a.Package] = a.PointsPerUSD
	}
	endpoints := map[string]string{}
	for _, p := range s.World.PlatformsSorted() {
		u, err := s.serve(iip.NewServer(p, rates).Handler())
		if err != nil {
			return fmt.Errorf("core: starting %s wall: %w", p.Name, err)
		}
		endpoints[p.Name] = u
	}

	s.Milker, err = monitor.NewMilker(s.World.Affiliates, endpoints)
	if err != nil {
		return fmt.Errorf("core: starting milker: %w", err)
	}

	targets := make([]string, 0, len(s.World.Advertised)+len(s.World.Baseline))
	for _, a := range s.World.Advertised {
		targets = append(targets, a.Package)
	}
	targets = append(targets, s.World.Baseline...)
	s.Crawler = crawler.New(playURL, targets)
	return nil
}

// serve starts an HTTP server on a loopback port and tracks it for
// shutdown.
func (s *Study) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	s.servers = append(s.servers, srv)
	return "http://" + ln.Addr().String(), nil
}

// Close tears down the study's HTTP infrastructure. Run leaves the
// servers up so callers can keep re-deriving artifacts (NewAnalysis,
// Figure 6 APK downloads) against the live surfaces; call Close when done.
func (s *Study) Close() {
	if s.Milker != nil {
		s.Milker.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.World != nil {
		s.World.Close()
	}
}

// Shutdown is the graceful counterpart of Close: in-flight requests
// against the study's HTTP surfaces finish (bounded by ctx) before the
// listeners close. Use it when a milker or crawler pass may still be
// mid-request — a hard Close there surfaces spurious connection errors
// for work that was about to succeed.
func (s *Study) Shutdown(ctx context.Context) error {
	if s.Milker != nil {
		s.Milker.Close()
	}
	var first error
	for _, srv := range s.servers {
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	if s.World != nil {
		if err := s.World.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
