package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/dates"
	"repro/internal/fault"
	"repro/internal/lockstep"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stream"
)

// CellRunInfo is the execution accounting of one cell run: how it got to
// the finish line, not what it computed. The chaos tests use it to prove
// a killed cell was resumed from its checkpoint rather than restarted —
// ResumedAfterDays + DaysExecuted always equals the window's day count.
type CellRunInfo struct {
	// Resumed reports that the run continued a predecessor's spooled
	// checkpoint instead of starting fresh.
	Resumed bool `json:"resumed,omitempty"`
	// ResumedAfterDays is the checkpointed day count the run started from.
	ResumedAfterDays int `json:"resumed_after_days,omitempty"`
	// DaysExecuted is how many days this run actually simulated.
	DaysExecuted int `json:"days_executed"`
	// RecoveredBytes is what stream.Recover truncated off the spooled
	// log's torn tail before resuming (0 = the tail was clean).
	RecoveredBytes int64 `json:"recovered_bytes,omitempty"`
}

// CellRunner executes grid cells. The zero value runs each cell entirely
// in memory — the fast path the in-process grid uses. With SpoolDir set,
// the run log and day-boundary checkpoints spool to disk so a killed
// run's successor resumes the cell from its last checkpoint; Fault, when
// set, injects write faults into the spooled log (chaos testing).
type CellRunner struct {
	// SpoolDir holds per-cell run logs and checkpoints ("" = in-memory,
	// no crash resume).
	SpoolDir string
	// CheckpointEvery is the day interval between spooled checkpoints
	// (<= 0 means every day). Only meaningful with SpoolDir.
	CheckpointEvery int
	// Fault, when non-nil, wraps the spooled log writer with injected
	// write failures and torn writes.
	Fault *fault.Injector
	// PerDay, when non-nil, runs after each simulated day (after the
	// detector drain): worker heartbeats and crash points hook in here.
	PerDay func(day dates.Date) error
	// Detector, when non-nil, receives every cell detector's retraction
	// and banding-funnel increments (aggregated across the cells this
	// runner executes — observation only, never consulted by detection).
	Detector *lockstep.Metrics
}

// Run executes one cell. The returned Cell is identical for any runner
// configuration — in-memory, spooled, killed-and-resumed — because the
// simulation is deterministic in (scenario, seed) and checkpoint resume
// is byte-exact. Cancelling ctx stops the run at the next day barrier
// with the spool checkpointed (errors.Is(err, ctx.Err())); a successor
// resumes the cell, it does not restart it.
//
// The run log is the detector's input either way: a Tail follows it at
// each day barrier, as an out-of-process analytics job tailing the file
// would. In memory it drains into a buffer. Spooled, it and periodic
// checkpoints live under SpoolDir, so a successor of a killed run
// salvages the log's torn tail (stream.Recover), restores the last
// checkpoint, re-ingests the detector from the salvaged prefix and
// continues the simulation, writing the bytes the uninterrupted run
// would have.
func (cr *CellRunner) Run(ctx context.Context, sp scenario.Spec, seed uint64) (Cell, CellRunInfo, error) {
	var info CellRunInfo
	cfg, err := sim.ConfigForSpec(sp)
	if err != nil {
		return Cell{}, info, err
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Workers = 1 // the grid parallelizes across cells
	cell := Cell{Scenario: sp.Name, Seed: cfg.Seed}
	fail := func(what string, err error) (Cell, CellRunInfo, error) {
		return cell, info, fmt.Errorf("sweep: %s %s/seed=%d: %w", what, sp.Name, cfg.Seed, err)
	}
	w, err := sim.NewWorld(cfg)
	if err != nil {
		return fail("building", err)
	}

	opts := sim.RunOptions{Context: ctx}
	var src io.ReaderAt
	var spool *sim.RunLogFile
	var logPath, ckptPath string
	if cr.SpoolDir == "" {
		buf := &memLog{}
		if opts.Log, err = w.NewRunLog(buf); err != nil {
			return fail("logging", err)
		}
		src = buf
	} else {
		logPath, ckptPath = cr.spoolPaths(sp.Name, cfg.Seed)
		opts.Resume = cr.loadResume(w, logPath, ckptPath, &info)
		spool, err = w.OpenRunLogFile(logPath, opts.Resume, cr.Fault)
		if err != nil && opts.Resume != nil {
			opts.Resume, info = nil, CellRunInfo{} // a log that cannot continue restarts the cell
			spool, err = w.OpenRunLogFile(logPath, nil, cr.Fault)
		}
		if err != nil {
			return fail("spooling", err)
		}
		opts.Log, src = spool.Log, spool
		opts.CheckpointEvery, opts.Checkpoint = cr.CheckpointEvery, spool.Checkpoint(ckptPath)
	}

	tap := newDetectorTap(sp, src, cr.Detector)
	opts.Hook = cr.dayHook(tap)
	// A resumed cell first re-ingests the already-simulated prefix: resume
	// continues the analysis too, it does not restart it.
	if opts.Resume != nil {
		if err := tap.drain(); err != nil {
			spool.Close()
			return fail("re-ingesting", err)
		}
	}
	stats, err := w.RunOpts(opts)
	if spool != nil {
		if cerr := spool.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fail("running", err)
	}
	info.DaysExecuted = stats.Days - info.ResumedAfterDays
	cell.Stats = stats
	scoreCell(&cell, w, tap.det)
	if spool != nil {
		// The cell is done and its result content-verifiable; the spool is
		// scratch space, not an artifact.
		os.Remove(logPath)
		os.Remove(ckptPath)
	}
	return cell, info, nil
}

func (cr *CellRunner) spoolPaths(name string, seed uint64) (logPath, ckptPath string) {
	stem := filepath.Join(cr.SpoolDir, fmt.Sprintf("%s-seed%d", name, seed))
	return stem + ".log", stem + ".ckpt"
}

// loadResume decides whether a predecessor's spool is continuable: the
// checkpoint must read back, the salvaged log must reach the
// checkpoint's offset, and the checkpoint must validate against this
// world (OpenRunLogFile then checks the log's header). Anything less
// falls back to a fresh run — which is always correct, just slower.
func (cr *CellRunner) loadResume(w *sim.World, logPath, ckptPath string, info *CellRunInfo) *stream.Checkpoint {
	cp, err := stream.ReadCheckpointFile(ckptPath)
	if err != nil {
		return nil
	}
	rinfo, err := stream.Recover(logPath)
	if err != nil || rinfo.ValidEnd < cp.LogOffset {
		return nil
	}
	// Validate only: the destructive overlay (World.Restore) happens
	// inside RunOpts, after OpenRunLogFile truncates the log — a checkpoint
	// from a different seed or config bails out here with the fresh-run
	// world untouched.
	if err := w.ValidateResume(cp); err != nil {
		return nil
	}
	info.Resumed = true
	info.ResumedAfterDays = int(cp.Days)
	info.RecoveredBytes = rinfo.Dropped()
	return cp
}

// dayHook chains the detector drain with the runner's PerDay hook.
func (cr *CellRunner) dayHook(tap *detectorTap) func(dates.Date) error {
	return func(day dates.Date) error {
		if err := tap.drain(); err != nil {
			return err
		}
		if cr.PerDay != nil {
			return cr.PerDay(day)
		}
		return nil
	}
}

// detectorTap feeds the incremental lockstep detector from a run log via
// stream.Tail: drained at each day barrier, it observes installs exactly
// as an out-of-process analytics job tailing the file would.
type detectorTap struct {
	det    *lockstep.Detector
	tail   *stream.Tail
	ev     stream.Event
	curDay dates.Date
}

func newDetectorTap(sp scenario.Spec, src io.ReaderAt, m *lockstep.Metrics) *detectorTap {
	det := lockstep.NewDetector(sp.Detector.Config())
	det.SetMetrics(m)
	return &detectorTap{
		det:  det,
		tail: stream.NewTail(src),
	}
}

func (tp *detectorTap) drain() error {
	for {
		ok, err := tp.tail.Next(&tp.ev)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		switch tp.ev.Kind {
		case stream.KindDayStart:
			tp.curDay = tp.ev.Day
		case stream.KindInstall:
			tp.det.Ingest(tp.ev.Device, tp.ev.Pkg, tp.curDay)
		case stream.KindInstallBatch:
			for _, dev := range tp.ev.Devices {
				tp.det.Ingest(dev, tp.ev.Pkg, tp.curDay)
			}
		}
	}
}

// scoreCell finishes a completed run: organic decoy background, then
// groups scored against the world's recorded ground truth.
func scoreCell(cell *Cell, w *sim.World, det *lockstep.Detector) {
	for _, dev := range w.DecoyEvents() {
		det.Ingest(dev.Device, dev.App, dev.Day)
	}
	truth := w.TruthLabels()
	groups := det.Groups()
	cell.Truth = len(truth)
	cell.Groups = len(groups)
	cell.Flagged = 0
	for _, g := range groups {
		cell.Flagged += len(g.Devices)
	}
	cell.Eval = lockstep.Evaluate(groups, truth)
	cell.Detector = det.Stats()
}

// IsInjected reports whether err stems from an injected fault — the
// signal a chaos-harness worker treats as its own simulated death.
func IsInjected(err error) bool { return errors.Is(err, fault.ErrInjected) }

// memLog is the in-memory run log a cell writes and tails: Write appends,
// ReadAt addresses absolute offsets. The writer (run loop) and reader
// (day-barrier hook) share one goroutine, so no locking is needed.
type memLog struct {
	buf []byte
}

func (m *memLog) Write(p []byte) (int, error) {
	m.buf = append(m.buf, p...)
	return len(p), nil
}

func (m *memLog) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
