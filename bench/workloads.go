package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/dates"
	"repro/internal/iip"
	"repro/internal/lockstep"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/sweep"
)

// workers bounds the load the benchmark puts on the host: at most two
// engine workers, or two sweep cells, are in flight at once.
const workers = 2

// workload is one job a user of the repository runs, repeated as reps.
type workload struct {
	name string
	why  string
	// job runs one rep of the job on the run's worlds, r.worlds.
	job func(r *rep, sz sizing) error
	// pick chooses the run's worlds from its seed; every rep runs them.
	pick func(sz sizing, seed uint64) ([]uint64, error)
	// world is the config of the workload's world at a world seed
	// (sweep-grid: of its baseline cells); the traced run's engine probe
	// runs it bare.
	world func(sz sizing, seed uint64, dir string) sim.Config
	// setup times one build of the run's worlds outside any job (one
	// sim.NewWorld of world when nil). A run builds until setupSeconds
	// are spent before its reps; with 0 the builds the reps make
	// themselves are the only setup_s samples.
	setup        func(sz sizing, worlds []uint64) (time.Duration, error)
	setupSeconds float64
	// probeLayers marks a job whose worlds the harness cannot reach (the
	// sweep builds and runs its cells inside sweep.CellRunner): its
	// engine-phase and snapshot metrics come from the engine probe's
	// instrumented run of world instead of from the traced reps.
	probeLayers bool
}

// buildTime is one setup_s sample taken outside the reps.
func (wl workload) buildTime(sz sizing, worlds []uint64, dir string) (time.Duration, error) {
	if wl.setup != nil {
		return wl.setup(sz, worlds)
	}
	t0 := time.Now()
	w, err := sim.NewWorld(wl.world(sz, worlds[0], dir))
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, w.Close()
}

// worldSeed is the seed offset of the j-th candidate world a run's seed
// selects; seed 0's first candidate is the calibrated world.
func worldSeed(seed uint64, j int) uint64 { return seed*1000 + uint64(j) }

// planBand is how far from its workload's target a picked world's planned
// completions may lie. Worlds of one config differ up to fivefold in
// install records, and their job time and memory with them; picking them
// at one plan size keeps what the seed changes to the worlds' contents.
const planBand = 0.01

// massiveBand is planBand for massive-spill, whose campaigns are a small
// part of its job: its plan bounds the size of the spill file, and a
// candidate takes half a second to build, so the band is wide.
const massiveBand = 0.25

// maxCandidates bounds the candidates pickWorlds screens for one run (at
// the stride of worldSeed, so the candidates of two seeds never overlap).
const maxCandidates = 1000

// pickWorlds returns the world seeds of the first n of the seed's
// candidate worlds of cfg whose planned completions lie within band of
// target, or the n closest when fewer than n of maxCandidates do. A target
// of 0 takes the first n candidates unscreened.
func pickWorlds(cfg sim.Config, seed uint64, n int, target, band float64) ([]uint64, error) {
	out := make([]uint64, 0, n)
	if target <= 0 {
		for j := range n {
			out = append(out, worldSeed(seed, j))
		}
		return out, nil
	}
	// The campaign plan is drawn apart from the crowd-worker pools, so a
	// candidate with one device per IIP has the full world's plan and
	// builds in milliseconds.
	if err := cfg.Resize(0, len(iip.StandardNames), 0); err != nil {
		return nil, err
	}
	type candidate struct {
		seed uint64
		off  float64
	}
	var seen []candidate
	for j := 0; j < maxCandidates && len(out) < n; j++ {
		c := cfg
		c.Seed += worldSeed(seed, j)
		w, err := sim.NewWorld(c)
		if err != nil {
			return nil, err
		}
		off := math.Abs(plannedCompletions(w)/target - 1)
		if err := w.Close(); err != nil {
			return nil, err
		}
		if off <= band {
			out = append(out, worldSeed(seed, j))
		}
		seen = append(seen, candidate{worldSeed(seed, j), off})
	}
	if len(out) == n {
		return out, nil
	}
	sort.SliceStable(seen, func(i, j int) bool { return seen[i].off < seen[j].off })
	out = out[:0]
	for _, c := range seen[:n] {
		out = append(out, c.seed)
	}
	return out, nil
}

// plannedCompletions is the size of a world's campaign plan: the
// completions its campaigns would deliver were demand and purchased
// targets the only limits. A world's install records follow it to within
// a few percent, and its run log, checkpoints and detector input with
// them.
func plannedCompletions(w *sim.World) float64 {
	var p float64
	for _, c := range w.Campaigns {
		p += math.Min(float64(c.Spec.Target), c.DailyUptake*float64(c.Spec.Window.Days()))
	}
	return p
}

// sizing fixes the worlds the workloads run. The benchmark runs
// benchSizing; the tests substitute a smaller one.
type sizing struct {
	study   sim.Config // paper-study world
	massive sim.Config // massive-spill world
	durable sim.Config // durable-resume world
	// checkpointEvery is durable-resume's checkpoint cadence in days;
	// resumeAfter is the day count of the checkpoint it resumes from;
	// segmentBytes is its run log's segment size.
	checkpointEvery, resumeAfter int
	segmentBytes                 int64
	// sweepSeeds seeds per scenario; sweepScenarios nil = every
	// registered scenario.
	sweepSeeds     int
	sweepScenarios []string
	// studyPlan, massivePlan and tinyPlan are the planned completions the
	// worlds of paper-study, of massive-spill and of durable-resume and
	// sweep-grid are picked at (0: unscreened).
	studyPlan, massivePlan, tinyPlan float64
}

// benchSizing is the benchmark's world sizes; README.md records how each
// was chosen against the job it stands for.
func benchSizing() sizing {
	days := sim.DefaultConfig().Window.Days()
	// paper-study: the small calibrated catalog over the paper's whole
	// window with 6000 devices, where lockstep detection, the day hooks
	// (crawl and milk over HTTP) and the engine take the same shares of
	// the study as on DefaultConfig, in about an eighth of its time.
	study := sim.TinyConfig()
	must(study.Resize(0, 6000, days))
	// massive-spill: MassiveConfig's memory model (install log spilled to
	// disk, balances-only ledger) on 30 000 apps and 30 000 devices over
	// the whole window, with 1/64 of its campaign census and a 64k-record
	// resident window: picked at 280k install records, spilled four times
	// into a file under 20 MB, no larger than durable-resume's
	// checkpoints. The full census spilled 1.25 GB and a tenth of it
	// 140 MB, more than a benchmark checkout may be allowed to write.
	massive := sim.MassiveConfig()
	const census = 64
	massive.TotalAdvertised /= census
	massive.OffersTarget /= census
	for name := range massive.AppsPerIIP {
		massive.AppsPerIIP[name] /= census
	}
	must(massive.Resize(30_000, 30_000, days))
	massive.InstallLogWindow = 1 << 16
	// durable-resume: the small calibrated world over its own 41-day
	// window (incentstudy -tiny -events ... -checkpoint-every 7). The plan
	// targets are the medians of each config's worlds.
	return sizing{
		study: study, massive: massive, durable: sim.TinyConfig(),
		checkpointEvery: 7, resumeAfter: 28, segmentBytes: 1 << 20,
		sweepSeeds: 4,
		studyPlan:  520_000, massivePlan: 280_000, tinyPlan: 455_000,
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

var workloads = []workload{
	{
		name: "paper-study",
		why:  "the paper's pipeline: lockstep detection and crawl and milk over loopback HTTP do most of the work, the day engine little",
		job:  paperStudy,
		pick: func(sz sizing, seed uint64) ([]uint64, error) {
			return pickWorlds(sz.study, seed, 1, sz.studyPlan, planBand)
		},
		world: func(sz sizing, seed uint64, _ string) sim.Config { return seeded(sz.study, seed) },
		// Its reps leave about 4 s of a 25 s run unused: builds fill 3 s.
		setupSeconds: 3,
	},
	{
		name: "massive-spill",
		why:  "engine-bound big world: organic fan-out, StepDay and the world build, with a small install-log spill; no run log, HTTP or detector",
		job:  massiveSpill,
		pick: func(sz sizing, seed uint64) ([]uint64, error) {
			return pickWorlds(sz.massive, seed, 1, sz.massivePlan, massiveBand)
		},
		world: massiveWorld,
	},
	{
		name: "durable-resume",
		why:  "crash-resumable path: run-log and checkpoint writes, then resume, seek and full replay read them back",
		job:  durableResume,
		pick: func(sz sizing, seed uint64) ([]uint64, error) {
			return pickWorlds(sz.durable, seed, 1, sz.tinyPlan, planBand)
		},
		world: func(sz sizing, seed uint64, _ string) sim.Config { return seeded(sz.durable, seed) },
	},
	{
		name: "sweep-grid",
		why:  "many small worlds: per-cell fixed costs and world builds dominate, each cell tailing its log into the online detector",
		job:  sweepGrid,
		pick: func(sz sizing, seed uint64) ([]uint64, error) {
			return pickWorlds(sim.TinyConfig(), seed, sz.sweepSeeds, sz.tinyPlan, planBand)
		},
		world:        func(_ sizing, seed uint64, _ string) sim.Config { return seeded(sim.TinyConfig(), seed) },
		setup:        sweepSetup,
		setupSeconds: 2,
		probeLayers:  true,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// seeded offsets a config's calibrated seed by a world seed and caps the
// engine's worker pool.
func seeded(cfg sim.Config, seed uint64) sim.Config {
	cfg.Seed += seed
	cfg.Workers = workers
	return cfg
}

// massiveWorld spills its install log into dir.
func massiveWorld(sz sizing, seed uint64, dir string) sim.Config {
	cfg := seeded(sz.massive, seed)
	cfg.InstallLogDir = dir
	return cfg
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// paperStudy runs incentstudy's job: the honey experiment, the day engine
// with the crawler every other day and the milker every fourth, and every
// analysis including the lockstep evaluation.
func paperStudy(r *rep, sz sizing) error {
	cfg := seeded(sz.study, r.worlds[0])
	opts := core.Options{MilkEveryDays: 4}
	if r.traced() {
		opts.Obs, opts.Trace = obs.NewRegistry(), obs.NewTracer(obs.DefaultTraceCap)
	}
	var s *core.Study
	err := r.step("study", func(span int) error {
		var err error
		if s, err = core.Run(cfg, opts); err != nil {
			return err
		}
		return r.spans.absorb(span, opts.Trace)
	})
	if s != nil {
		defer s.Close()
	}
	if err != nil {
		return err
	}

	sum := s.World.Ledger.Sum()
	r.check(math.Abs(sum) < 1e-6, "ledger conservation: sum = %g", sum)
	nOffers := len(s.Milker.Offers())
	lock := s.Results.Lockstep
	r.check(nOffers > 0, "the milker collected no offers")
	r.check(lock.Groups > 0, "the lockstep detector found no groups")
	r.worldCounts(s.World, s.Results.RunStats.Days)
	snap := r.snapshotStore(s.World)
	r.fingerprint = fmt.Sprintf("%+v offers=%d lockstep=%+v store=%s", s.Results.RunStats, nOffers, lock, digest(snap))

	if !r.traced() {
		return nil
	}
	// Single passes of the layers the study interleaves with the day loop,
	// re-timed on the finished world.
	end := s.World.Cfg.Window.End
	if err := r.extra("crawl", func() error { return s.Crawler.CrawlNow(end) }); err != nil {
		return err
	}
	if err := r.extra("milk", func() error { return s.Milker.MilkDay(end) }); err != nil {
		return err
	}
	return r.extra("detect", func() error {
		events, _ := s.World.DetectionEvents()
		groups := lockstep.Detect(events, lockstep.DefaultConfig())
		r.check(len(groups) == lock.Groups, "re-timed detection found %d groups, the study %d", len(groups), lock.Groups)
		return nil
	})
}

// massiveSpill builds the big world and runs its window with no hook, log
// or checkpoint: the engine and the install-log spill alone.
func massiveSpill(r *rep, sz sizing) error {
	cfg := massiveWorld(sz, r.worlds[0], r.dir)
	reg, tr := r.instruments()
	var w *sim.World
	var stats sim.RunStats
	err := r.step("run", func(span int) error {
		var err error
		if w, err = r.build(cfg, span); err != nil {
			return err
		}
		t0 := time.Now()
		if stats, err = w.RunOpts(sim.RunOptions{Metrics: sim.NewMetrics(reg, tr)}); err != nil {
			return err
		}
		r.stage("ns_per_device_day", float64(time.Since(t0).Nanoseconds())/float64(devices(cfg)*stats.Days))
		return r.spans.absorb(span, tr)
	})
	if w != nil {
		defer w.Close()
	}
	if err != nil {
		return err
	}
	r.check(w.InstallLog.Err() == nil, "install log: %v", w.InstallLog.Err())
	r.check(w.InstallLog.Spilling() && w.InstallLog.Len() > cfg.InstallLogWindow,
		"install log never spilled: %d records, window %d", w.InstallLog.Len(), cfg.InstallLogWindow)
	r.check(stats.IncentivizedInstalls > 0, "no incentivized installs")
	r.worldCounts(w, stats.Days)
	snap := r.snapshotStore(w)
	r.fingerprint = fmt.Sprintf("%+v installs=%d store=%s", stats, w.InstallLog.Len(), digest(snap))
	return nil
}

// durableResume runs the world with its run log on disk (1 MiB buffer,
// sz.segmentBytes segments) and a checkpoint every sz.checkpointEvery
// days, resumes a fresh world from the checkpoint after sz.resumeAfter
// days, seeks to the last day through the segment index, and replays the
// whole log.
func durableResume(r *rep, sz sizing) error {
	cfg := seeded(sz.durable, r.worlds[0])
	logPath := filepath.Join(r.dir, "run.log")
	resumedPath := filepath.Join(r.dir, "resumed.log")
	ckptPath := filepath.Join(r.dir, "run.ckpt")
	resumePath := filepath.Join(r.dir, "resume.ckpt")
	// Checkpoints rewrite one file, as incentstudy's do; the one the
	// resume starts from goes to its own file, at the same cost.
	ckptFile := func(cp *stream.Checkpoint) string {
		if cp.Days == int64(sz.resumeAfter) {
			return resumePath
		}
		return ckptPath
	}

	var w, w2 *sim.World
	defer func() {
		for _, x := range []*sim.World{w, w2} {
			if x != nil {
				x.Close()
			}
		}
	}()
	var stats, resumed sim.RunStats
	err := r.step("run", func(span int) error {
		var err error
		if w, err = r.build(cfg, span); err != nil {
			return err
		}
		reg, tr := r.instruments()
		t0 := time.Now()
		stats, err = durableRun(logPath, nil, ckptFile, sz.checkpointEvery, func(out io.Writer) (*stream.Writer, error) {
			lw, err := w.NewRunLog(out)
			if err != nil {
				return nil, err
			}
			lw.SetSegmentBytes(sz.segmentBytes)
			lw.SetMetrics(stream.NewWriterMetrics(reg))
			return lw, nil
		}, w, sim.NewMetrics(reg, tr))
		if err != nil {
			return err
		}
		r.stage("ns_per_device_day", float64(time.Since(t0).Nanoseconds())/float64(devices(cfg)*stats.Days))
		return r.spans.absorb(span, tr)
	})
	if err != nil {
		return err
	}

	// The resumed run appends to a copy of the log, so the original stays
	// to compare against; the copy is bookkeeping, off the job clock.
	if err := copyFile(logPath, resumedPath); err != nil {
		return err
	}
	err = r.step("resume", func(span int) error {
		cp, err := stream.ReadCheckpointFile(resumePath)
		if err != nil {
			return err
		}
		if w2, err = r.build(cfg, span); err != nil {
			return err
		}
		if err := w2.ValidateResume(cp); err != nil {
			return err
		}
		reg, tr := r.instruments()
		resumed, err = durableRun(resumedPath, cp, ckptFile, sz.checkpointEvery, func(out io.Writer) (*stream.Writer, error) {
			lw := w2.ResumeRunLog(out, cp)
			lw.SetMetrics(stream.NewWriterMetrics(reg))
			return lw, nil
		}, w2, sim.NewMetrics(reg, tr))
		if err == nil {
			err = r.spans.absorb(span, tr)
		}
		return err
	})
	if err != nil {
		return err
	}

	var seek, replay *stream.ReplayResult
	err = r.step("seek", func(int) error {
		f, err := os.Open(logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		idx, err := stream.ScanIndex(f)
		if err != nil {
			return err
		}
		last, ok := idx.LastDay()
		if !ok {
			return fmt.Errorf("run log has no days")
		}
		r.check(len(idx.Segments) > 1, "run log has %d segment(s); the seek never skipped one", len(idx.Segments))
		seek, err = stream.ReplayDay(f, last)
		return err
	})
	if err != nil {
		return err
	}
	err = r.step("replay", func(int) error {
		f, err := os.Open(logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		replay, err = stream.Replay(bufio.NewReaderSize(f, 1<<20))
		return err
	})
	if err != nil {
		return err
	}
	r.stage("resume_s", r.steps["resume"].Seconds())
	r.stage("seek_s", r.steps["seek"].Seconds())
	r.stage("replay_s", r.steps["replay"].Seconds())

	logSum, err := fileDigest(logPath)
	if err != nil {
		return err
	}
	resumedSum, err := fileDigest(resumedPath)
	if err != nil {
		return err
	}
	r.check(logSum == resumedSum, "the resumed run log differs from the original")
	r.check(resumed == stats, "resumed stats %+v, original %+v", resumed, stats)
	r.check(replayStats(replay.Stats) == stats, "replayed stats %+v, run %+v", replay.Stats, stats)
	r.check(replayStats(seek.Stats) == stats, "seek-replayed stats %+v, run %+v", seek.Stats, stats)
	snap, snap2 := r.snapshotStore(w), r.snapshotStore(w2)
	r.check(digest(snap) == digest(snap2), "the resumed world's store differs from the original's")
	r.count("sim.device_days", float64(devices(cfg)*(stats.Days+stats.Days-sz.resumeAfter)))
	r.count("sim.install_records", float64(w.InstallLog.Len()))
	r.fingerprint = fmt.Sprintf("%+v log=%s store=%s", stats, logSum, digest(snap))
	return nil
}

// durableRun runs w with its run log in the file at path behind a 1 MiB
// buffer, writing a checkpoint every `every` days; resuming from cp, the
// file is first truncated to the checkpoint's offset. Like incentstudy,
// each checkpoint first flushes the log bytes its offset points at.
func durableRun(path string, cp *stream.Checkpoint, ckptFile func(*stream.Checkpoint) string, every int,
	open func(io.Writer) (*stream.Writer, error), w *sim.World, m *sim.Metrics) (sim.RunStats, error) {
	var f *os.File
	var err error
	if cp != nil {
		if f, err = os.OpenFile(path, os.O_RDWR, 0); err == nil {
			if err = f.Truncate(cp.LogOffset); err == nil {
				_, err = f.Seek(cp.LogOffset, io.SeekStart)
			}
		}
	} else {
		f, err = os.Create(path)
	}
	if err != nil {
		return sim.RunStats{}, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	lw, err := open(bw)
	if err != nil {
		return sim.RunStats{}, err
	}
	stats, err := w.RunOpts(sim.RunOptions{
		Log:             lw,
		Resume:          cp,
		Metrics:         m,
		CheckpointEvery: every,
		Checkpoint: func(cp *stream.Checkpoint) error {
			if err := bw.Flush(); err != nil {
				return err
			}
			return stream.WriteCheckpointFile(ckptFile(cp), cp)
		},
	})
	if err != nil {
		return stats, err
	}
	if err := bw.Flush(); err != nil {
		return stats, err
	}
	if err := f.Sync(); err != nil {
		return stats, err
	}
	return stats, f.Close()
}

func replayStats(s stream.ReplayStats) sim.RunStats {
	return sim.RunStats{
		Days:                 s.Days,
		OrganicInstalls:      s.OrganicInstalls,
		IncentivizedInstalls: s.IncentivizedInstalls,
		CertifiedCompletions: s.CertifiedCompletions,
		RevenueUSD:           s.RevenueUSD,
	}
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// cellSeeds are the grid's cell seeds: its world seeds offset from the
// tiny base's calibrated seed, as seeded offsets a config's.
func cellSeeds(worlds []uint64) []uint64 {
	out := make([]uint64, len(worlds))
	for i, s := range worlds {
		out[i] = sim.TinyConfig().Seed + s
	}
	return out
}

func sweepSpecs(sz sizing) ([]scenario.Spec, error) {
	names := sz.sweepScenarios
	if names == nil {
		names = scenario.Names()
	}
	specs := make([]scenario.Spec, len(names))
	for i, name := range names {
		sp, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q", name)
		}
		specs[i] = sp
	}
	return specs, nil
}

// sweepSetup builds every cell's world once: one setup_s sample.
func sweepSetup(sz sizing, worlds []uint64) (time.Duration, error) {
	specs, err := sweepSpecs(sz)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, sp := range specs {
		for _, s := range cellSeeds(worlds) {
			cfg, err := sim.ConfigForSpec(sp)
			if err != nil {
				return 0, err
			}
			cfg.Seed, cfg.Workers = s, 1
			t0 := time.Now()
			w, err := sim.NewWorld(cfg)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
			if err := w.Close(); err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

// sweepGrid runs every registered scenario (or sz.sweepScenarios) over the
// run's world seeds, two cells at a time. Untraced reps call
// sweep.RunCtx; traced reps run the same cells through sweep.CellRunner
// (what RunCtx runs) one by one, to record a span per cell and per
// simulated day, and must reproduce RunCtx's cells exactly.
func sweepGrid(r *rep, sz sizing) error {
	specs, err := sweepSpecs(sz)
	if err != nil {
		return err
	}
	seeds := cellSeeds(r.worlds)
	r.ops = len(specs) * len(seeds)
	var cells []sweep.Cell
	err = r.step("grid", func(span int) error {
		if !r.traced() {
			res, err := sweep.RunCtx(context.Background(), sweep.Options{Seeds: seeds, Scenarios: sz.sweepScenarios, Workers: workers})
			if err != nil {
				return err
			}
			for _, s := range res.Scenarios {
				cells = append(cells, s.Cells...)
			}
			return nil
		}
		cells = make([]sweep.Cell, r.ops)
		errs := make([]error, r.ops)
		conc.ForN(workers, r.ops, func(i int) {
			cells[i], errs[i] = tracedCell(r.spans, span, specs[i/len(seeds)], seeds[i%len(seeds)])
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(cells) != r.ops {
		return fmt.Errorf("grid returned %d cells, want %d", len(cells), r.ops)
	}
	r.stage("cell_s", r.job.Seconds()/float64(r.ops))
	// Both paths order cells by scenario, then seed.
	for i, c := range cells {
		sp := specs[i/len(seeds)]
		r.check(c.Scenario == sp.Name && c.Seed == seeds[i%len(seeds)], "cell %d is %s/seed=%d, want %s/seed=%d", i, c.Scenario, c.Seed, sp.Name, seeds[i%len(seeds)])
		r.check(c.Truth > 0, "cell %s/seed=%d has no incentivized devices", c.Scenario, c.Seed)
		cfg, err := sim.ConfigForSpec(sp)
		if err != nil {
			return err
		}
		r.count("sim.device_days", float64(devices(cfg)*c.Stats.Days))
		// A cell's install log holds exactly its incentivized installs.
		r.count("sim.install_records", float64(c.Stats.IncentivizedInstalls))
	}
	b, err := json.Marshal(cells)
	if err != nil {
		return err
	}
	r.fingerprint = digest(b)
	return nil
}

// tracedCell runs one grid cell through sweep's cell runner under a
// "cell" span, stamping a "day" span between consecutive day barriers.
func tracedCell(spans *spanLog, parent int, sp scenario.Spec, seed uint64) (sweep.Cell, error) {
	id := spans.begin(parent, "cell", fmt.Sprintf("%s/%d", sp.Name, seed))
	defer spans.finish(id)
	var last time.Time
	runner := sweep.CellRunner{PerDay: func(day dates.Date) error {
		now := time.Now()
		if !last.IsZero() {
			spans.add(id, "day", day.String(), last, now.Sub(last))
		}
		last = now
		return nil
	}}
	cell, _, err := runner.Run(context.Background(), sp, seed)
	return cell, err
}
