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
	// day's installs reached the detector): worker heartbeats and crash
	// points hook in here.
	PerDay func(day dates.Date) error
	// Detector, when non-nil, receives every cell detector's retraction
	// increments (aggregated across the cells this runner executes —
	// observation only, never consulted by detection).
	Detector *lockstep.Metrics
}

// Run executes one cell. The returned Cell is identical for any runner
// configuration — in-memory, spooled, killed-and-resumed — because the
// simulation is deterministic in (scenario, seed) and checkpoint resume
// is byte-exact. Cancelling ctx stops the run at the next day barrier
// with the spool checkpointed (errors.Is(err, ctx.Err())); a successor
// resumes the cell, it does not restart it.
//
// The detector takes each day's incentivized installs at the day barrier
// (sim.RunOptions.Installs), and its device table, read before the
// organic decoys join it, is the ground truth the cell is scored against.
// In memory no run log is written at all. Spooled, the run log and
// periodic checkpoints live under SpoolDir, so a successor of a killed
// run salvages the log's torn tail (stream.Recover), restores the last
// checkpoint, re-ingests the salvaged prefix into the detector and
// continues the simulation, writing the bytes the uninterrupted run would
// have.
func (cr *CellRunner) Run(ctx context.Context, sp scenario.Spec, seed uint64) (Cell, CellRunInfo, error) {
	cell, info, _, err := cr.run(ctx, sp, seed)
	return cell, info, err
}

// run is Run, also returning the truth set the cell was scored against.
func (cr *CellRunner) run(ctx context.Context, sp scenario.Spec, seed uint64) (Cell, CellRunInfo, map[string]bool, error) {
	var info CellRunInfo
	cfg, err := sim.ConfigForSpec(sp)
	if err != nil {
		return Cell{}, info, nil, err
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Workers = 1 // the grid parallelizes across cells
	// Nothing in a cell reads the ledger's transfer history; balances,
	// and so every simulated value, are the same without it.
	cfg.LedgerBalancesOnly = true
	cell := Cell{Scenario: sp.Name, Seed: cfg.Seed}
	fail := func(what string, err error) (Cell, CellRunInfo, map[string]bool, error) {
		return cell, info, nil, fmt.Errorf("sweep: %s %s/seed=%d: %w", what, sp.Name, cfg.Seed, err)
	}
	w, err := sim.NewWorld(cfg)
	if err != nil {
		return fail("building", err)
	}

	det := lockstep.NewDetector(sp.Detector.Config())
	det.SetMetrics(cr.Detector)
	opts := sim.RunOptions{Context: ctx, Hook: cr.PerDay, Installs: func(recs []sim.InstallRecord) error {
		for _, in := range recs {
			det.Ingest(in.Device, in.App, in.Day)
		}
		return nil
	}}
	var spool *sim.RunLogFile
	var logPath, ckptPath string
	if cr.SpoolDir == "" {
		// The detector takes the installs at the barrier, so nothing reads
		// the world's install records: keep only their count. A spooled
		// cell keeps them, since its checkpoints embed the install history.
		if err := w.InstallLog.CountOnly(); err != nil {
			return fail("counting installs", err)
		}
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
		opts.Log = spool.Log
		opts.CheckpointEvery, opts.Checkpoint = cr.CheckpointEvery, spool.Checkpoint(ckptPath)
		// A resumed cell first re-ingests the already-simulated prefix:
		// resume continues the analysis too, it does not restart it.
		if opts.Resume != nil {
			if err := ingestLog(det, spool); err != nil {
				spool.Close()
				return fail("re-ingesting", err)
			}
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
	truth := scoreCell(&cell, w.DecoyEvents(), det)
	if spool != nil {
		// The cell is done and its result content-verifiable; the spool is
		// scratch space, not an artifact.
		os.Remove(logPath)
		os.Remove(ckptPath)
	}
	return cell, info, truth, nil
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

// ingestLog feeds det every install a run log holds, in log order: the
// salvaged prefix of a resumed cell, whose days the barrier callback of
// this run never sees.
func ingestLog(det *lockstep.Detector, src io.ReaderAt) error {
	tail := stream.NewTail(src)
	var ev stream.Event
	for {
		ok, err := tail.Next(&ev)
		if err != nil || !ok {
			return err
		}
		for in := range ev.Installs(tail.Day()) {
			det.Ingest(in.Device, in.App, in.Day)
		}
	}
}

// scoreCell finishes a completed run. The detector's device table, read
// before the organic decoy background joins it, is the cell's ground
// truth: every device it took an incentivized install from. The groups
// found once the decoys are in are scored against it, and it is returned.
func scoreCell(cell *Cell, decoys []lockstep.Event, det *lockstep.Detector) map[string]bool {
	devs := det.Devices()
	truth := make(map[string]bool, len(devs))
	for _, d := range devs {
		truth[d] = true
	}
	for _, dev := range decoys {
		det.Ingest(dev.Device, dev.App, dev.Day)
	}
	groups := det.Groups()
	cell.Truth = len(truth)
	cell.Groups = len(groups)
	cell.Flagged = 0
	for _, g := range groups {
		cell.Flagged += len(g.Devices)
	}
	cell.Eval = lockstep.Evaluate(groups, truth)
	cell.Detector = det.Stats()
	return truth
}

// IsInjected reports whether err stems from an injected fault — the
// signal a chaos-harness worker treats as its own simulated death.
func IsInjected(err error) bool { return errors.Is(err, fault.ErrInjected) }
