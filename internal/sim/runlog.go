package sim

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/fault"
	"repro/internal/mediator"
	"repro/internal/playstore"
	"repro/internal/stream"
)

// NewRunLog opens an event-sourced run log on out for this world: the
// header (run parameters) and the base snapshot (store, ledger, mediator
// exactly as they stand now) are written immediately, and the returned
// writer is ready to be attached via RunOptions.Log. Call it right before
// the run so any pre-run activity (e.g. the honey-app experiment) is part
// of the base snapshot.
func (w *World) NewRunLog(out io.Writer) (*stream.Writer, error) {
	h := stream.Header{
		Version:      stream.Version,
		Seed:         w.Cfg.Seed,
		WindowStart:  w.Cfg.Window.Start,
		WindowEnd:    w.Cfg.Window.End,
		MediatorName: w.Mediator.Name,
		FeePerUser:   w.Mediator.FeePerUser,
	}
	base := stream.Base{
		Store:    w.Store.EncodeSnapshot(),
		Ledger:   w.Ledger.EncodeSnapshot(),
		Mediator: w.Mediator.EncodeSnapshot(),
		Devices:  w.RunLogDevices(),
		Strings:  w.RunLogStrings(),
	}
	return stream.NewWriter(out, h, base)
}

// RunLogDevices returns the run log's interned device table: every
// crowd-worker device ID, in deterministic (pool name, pool order). The
// world build is deterministic, so a resumed run reconstructs the exact
// table the original log's base frame carries — which is what lets
// stream.ResumeWriter keep device references byte-identical.
func (w *World) RunLogDevices() []string {
	names := make([]string, 0, len(w.Pools))
	for name := range w.Pools {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	seen := map[string]bool{}
	for _, name := range names {
		for _, wk := range w.Pools[name] {
			if !seen[wk.ID] {
				seen[wk.ID] = true
				out = append(out, wk.ID)
			}
		}
	}
	return out
}

// RunLogStrings returns the run log's interned string table: every
// catalog package (the store's canonical order), every offer ID and
// developer account (campaign launch order), and the per-IIP and
// per-worker ledger account names — all the strings event frames repeat
// millions of times. Like the device table, it is reconstructed
// deterministically from the world build, so a resumed run resolves the
// exact references the original log's base frame carries.
func (w *World) RunLogStrings() []string {
	var out []string
	seen := map[string]bool{}
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, pkg := range w.Store.Packages() {
		add(pkg)
	}
	for _, c := range w.Campaigns {
		add(c.OfferID)
		add(mediator.DeveloperAccount(c.Spec.Developer))
	}
	names := make([]string, 0, len(w.Pools))
	for name := range w.Pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add(mediator.IIPAccount(name))
		for _, acct := range w.affAcctByIIP[name] {
			add(acct)
		}
		if acct := w.noAffAcctByIIP[name]; acct != "" {
			add(acct)
		}
		add(mediator.UserAccount("pool-" + name))
		for _, wk := range w.Pools[name] {
			add(mediator.UserAccount(wk.ID))
		}
	}
	return out
}

// ResumeRunLog continues the event log of a checkpointed run: out must be
// the original log file truncated to cp.LogOffset and positioned at its
// end. The checkpointed segmentation state is reinstated so segment
// rotations re-trigger at the original offsets, keeping the appended
// frames byte-identical to what the uninterrupted run would have written.
func (w *World) ResumeRunLog(out io.Writer, cp *stream.Checkpoint) *stream.Writer {
	lw := stream.ResumeWriter(out, cp.LogOffset, w.RunLogDevices(), w.RunLogStrings())
	lw.RestoreSegmentState(cp)
	return lw
}

// ValidateResume checks that a restored checkpoint is consistent with
// this world — every engine work unit resolves and has its RNG stream
// state — without running anything. Callers with destructive follow-up
// work (truncating the original event log) run it first, so a checkpoint
// from a different seed or config fails before any file is touched.
func (w *World) ValidateResume(cp *stream.Checkpoint) error {
	eng, err := newEngine(w)
	if err != nil {
		return fmt.Errorf("sim: checkpoint does not match this world: %w", err)
	}
	if err := eng.restoreStreams(cp); err != nil {
		return fmt.Errorf("sim: checkpoint does not match this world: %w", err)
	}
	return nil
}

// Restore overlays a day-boundary checkpoint onto a freshly built world:
// the store is replaced with the snapshot (enforcer state included), the
// ledger, mediator, and every platform get their mutable state back
// bit-exact, and the install log is rebuilt. The world must come from the
// same Config as the checkpointed run — the deterministic build supplies
// everything the checkpoint deliberately omits (catalog plans, campaign
// specs, worker pools, organic rates). RunOpts calls this automatically
// when RunOptions.Resume is set.
func (w *World) Restore(cp *stream.Checkpoint) error {
	store, err := playstore.DecodeSnapshot(cp.Store)
	if err != nil {
		return fmt.Errorf("sim: restoring store: %w", err)
	}
	if err := w.Ledger.RestoreSnapshot(cp.Ledger); err != nil {
		return fmt.Errorf("sim: restoring ledger: %w", err)
	}
	if err := w.Mediator.RestoreSnapshot(cp.Mediator); err != nil {
		return fmt.Errorf("sim: restoring mediator: %w", err)
	}
	for _, blob := range cp.Platforms {
		p := w.Platforms[blob.Name]
		if p == nil {
			return fmt.Errorf("sim: checkpoint references unknown platform %s", blob.Name)
		}
		if err := p.RestoreSnapshot(blob.Data); err != nil {
			return fmt.Errorf("sim: restoring platform %s: %w", blob.Name, err)
		}
	}
	w.Store = store
	w.Store.SetHorizon(w.Cfg.Window.End)
	if enf := store.Enforcer(); enf != nil {
		w.Enforcer = enf
	}
	w.InstallLog.Reset(cp.Installs.Len())
	for in, err := range cp.Installs.All() {
		if err != nil {
			return fmt.Errorf("sim: restoring install log: %w", err)
		}
		w.InstallLog.Append(in)
	}
	w.restored = cp
	return nil
}

// RunLogFile is a run log on disk, and the one place that creates such a
// file, continues it at a checkpoint, and makes it durable (DESIGN.md E6,
// "The durable run log"). Writes go through a 1 MiB buffer, which the run
// loop flushes at every day barrier, so a reader tailing the file
// (stream.NewTail) sees whole days. A write-fault injector sits below the
// buffer, at the depth where a crash mid-write tears the file.
type RunLogFile struct {
	// Log is the run-log writer to attach as RunOptions.Log.
	Log *stream.Writer
	f   *os.File
	bw  *bufio.Writer
}

// OpenRunLogFile opens this world's run log at path. With resume nil the
// file is created fresh, header and base snapshot first. Otherwise the
// file is continued at resume.LogOffset, so the bytes that follow equal
// those of an uninterrupted run; it must be this run's log (its header
// names the world's seed and window) and reach the offset, and both are
// checked before it is truncated there, so a refused file is left as it
// was. inj may be nil.
func (w *World) OpenRunLogFile(path string, resume *stream.Checkpoint, inj *fault.Injector) (*RunLogFile, error) {
	f, err := w.openLogFile(path, resume)
	if err != nil {
		return nil, err
	}
	l := &RunLogFile{f: f, bw: bufio.NewWriterSize(inj.Writer(f), 1<<20)}
	if resume != nil {
		l.Log = w.ResumeRunLog(l.bw, resume)
	} else if l.Log, err = w.NewRunLog(l.bw); err != nil {
		f.Close()
		return nil, fmt.Errorf("sim: opening run log: %w", err)
	}
	return l, nil
}

// openLogFile creates the file at path or, to continue it at resume,
// checks the file and then truncates it at the offset and seeks there.
func (w *World) openLogFile(path string, resume *stream.Checkpoint) (*os.File, error) {
	if resume == nil {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("sim: creating run log: %w", err)
		}
		return f, nil
	}
	off := resume.LogOffset
	if off == 0 {
		return nil, fmt.Errorf("sim: checkpoint was taken without an event log; start a fresh log instead of resuming %s", path)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("sim: opening run log for resume: %w", err)
	}
	fail := func(format string, args ...any) (*os.File, error) {
		f.Close()
		return nil, fmt.Errorf(format, args...)
	}
	if fi, err := f.Stat(); err != nil || fi.Size() < off {
		return fail("sim: run log %s shorter than checkpoint offset %d (err=%v)", path, off, err)
	}
	hdr, ok, err := stream.NewTail(f).Header()
	if err != nil || !ok {
		return fail("sim: %s is not a run log for this world (header unreadable: %v)", path, err)
	}
	if hdr.Seed != w.Cfg.Seed || hdr.WindowStart != w.Cfg.Window.Start || hdr.WindowEnd != w.Cfg.Window.End {
		return fail("sim: %s belongs to a different run (seed %d window %s..%s, want seed %d window %s..%s)",
			path, hdr.Seed, hdr.WindowStart, hdr.WindowEnd, w.Cfg.Seed, w.Cfg.Window.Start, w.Cfg.Window.End)
	}
	if err := f.Truncate(off); err != nil {
		return fail("sim: truncating run log at checkpoint: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return fail("sim: seeking run log: %w", err)
	}
	return f, nil
}

// Checkpoint returns the RunOptions.Checkpoint callback that writes each
// checkpoint atomically to path, after flushing and fsyncing the log
// bytes its offset points at: a checkpoint never names bytes a power cut
// can still take back. On a nil *RunLogFile (a run without a log) it
// writes the checkpoint only.
func (l *RunLogFile) Checkpoint(path string) func(*stream.Checkpoint) error {
	return func(cp *stream.Checkpoint) error {
		if l != nil {
			if err := l.sync(); err != nil {
				return err
			}
		}
		return stream.WriteCheckpointFile(path, cp)
	}
}

// sync pushes the buffered bytes to the file and the file to disk.
func (l *RunLogFile) sync() error {
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("sim: flushing run log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("sim: syncing run log: %w", err)
	}
	return nil
}

// Close flushes, fsyncs and closes the file, and returns the first error.
func (l *RunLogFile) Close() error {
	err := l.sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
