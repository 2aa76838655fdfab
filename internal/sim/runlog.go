package sim

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"repro/internal/affiliate"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/mediator"
	"repro/internal/playstore"
	"repro/internal/stream"
)

// NewRunLog opens an event-sourced run log on out for this world: the
// header (run parameters) and the base snapshot (store, ledger, mediator
// exactly as they stand now, and the run's name tables) are written
// immediately, and the returned writer is ready to be attached via
// RunOptions.Log. Call it right before the run so any pre-run activity
// (e.g. the honey-app experiment) is part of the base snapshot.
func (w *World) NewRunLog(out io.Writer) (*stream.Writer, error) {
	h := stream.Header{
		Version:      stream.Version,
		Seed:         w.Cfg.Seed,
		WindowStart:  w.Cfg.Window.Start,
		WindowEnd:    w.Cfg.Window.End,
		MediatorName: w.Mediator.Name,
		FeePerUser:   w.Mediator.FeePerUser,
	}
	names := newRunNames(w)
	base := stream.Base{
		Store:    w.Store.EncodeSnapshot(),
		Ledger:   w.Ledger.EncodeSnapshot(),
		Mediator: w.Mediator.EncodeSnapshot(),
		Devices:  names.devs.list,
		Strings:  names.strs.list,
	}
	return stream.NewWriter(out, h, base)
}

// ResumeRunLog continues the event log of a checkpointed run: out must be
// the original log file truncated to cp.LogOffset and positioned at its
// end. The world build is deterministic, so the run's name tables are the
// ones the original log's base frame carries, and the checkpointed
// segmentation state is reinstated so segment rotations re-trigger at the
// original offsets: the appended frames are byte-identical to what the
// uninterrupted run would have written.
func (w *World) ResumeRunLog(out io.Writer, cp *stream.Checkpoint) *stream.Writer {
	names := newRunNames(w)
	lw := stream.ResumeWriter(out, cp.LogOffset, names.devs.list, names.strs.list)
	lw.RestoreSegmentState(cp)
	return lw
}

// runNames are a run's name tables: the run log's device and string
// tables, listed in one deterministic walk of the world that hands out
// each name's stream.Ref as it lists it. The engine writes only these
// Refs and NewRunLog and ResumeRunLog write these lists, so the two agree
// by construction, log on or off. The walk lists the store's packages
// (package i is string ID i+1), then each campaign's offer ID and
// developer account, then per pool name, sorted, the IIP, affiliate,
// no-affiliate, pool and per-worker accounts and the pool's devices. A
// name listed twice keeps its first ID; a name outside the tables
// (device-churn's rotated device IDs) keeps ID 0 and is written inline.
type runNames struct {
	devs, strs nameList
	pkgs       []stream.Ref // in Store.Packages() order
	camps      []campNames  // parallel to World.Campaigns
}

// nameList is one name table: the names in ID order and their positions.
type nameList struct {
	list []string
	idx  map[string]uint32
}

// ref returns s's Ref, listing s on first sight.
func (l *nameList) ref(s string) stream.Ref {
	id, ok := l.idx[s]
	if !ok {
		id = uint32(len(l.list))
		l.idx[s] = id
		l.list = append(l.list, s)
	}
	return stream.Ref{ID: id + 1, S: s}
}

// campNames are the names one campaign writes.
type campNames struct {
	pkg, offerID, devAcct stream.Ref // devAcct is "dev:<developer>"
	iipNames
}

// iipNames are the names every campaign on one IIP shares. Its slices
// are one backing array, shared by all the IIP's units.
type iipNames struct {
	iipAcct   stream.Ref   // "iip:<platform>"
	poolAcct  stream.Ref   // "user:pool-<platform>", the batch payout account
	devs      []stream.Ref // each pool worker's device ID, parallel to the pool
	poolAccts []stream.Ref // "user:<worker.ID>", parallel to the pool
	affAccts  []stream.Ref // "affiliate:<pkg>" per instrumented affiliate
	noAffAcct stream.Ref   // fallback when the IIP has no instrumented affiliates
}

// newRunNames walks w, its lists and maps sized from counts taken first.
func newRunNames(w *World) *runNames {
	pkgs := w.Store.Packages()
	pools := slices.Sorted(maps.Keys(w.Pools))
	affs := make([][]*affiliate.App, len(pools))
	ndev, nstr := 0, len(pkgs)+2*len(w.Campaigns)
	for i, name := range pools {
		affs[i] = w.AffiliatesForIIP(name)
		ndev += len(w.Pools[name])
		nstr += 3 + len(affs[i]) + len(w.Pools[name])
	}
	n := &runNames{
		devs:  nameList{make([]string, 0, ndev), make(map[string]uint32, ndev)},
		strs:  nameList{make([]string, 0, nstr), make(map[string]uint32, nstr)},
		pkgs:  make([]stream.Ref, len(pkgs)),
		camps: make([]campNames, len(w.Campaigns)),
	}
	for i, pkg := range pkgs {
		n.pkgs[i] = n.strs.ref(pkg)
	}
	for i, c := range w.Campaigns {
		n.camps[i].pkg = n.strs.ref(c.App)
		n.camps[i].offerID = n.strs.ref(c.OfferID)
		n.camps[i].devAcct = n.strs.ref(mediator.DeveloperAccount(c.Spec.Developer))
	}
	shared := make(map[string]iipNames, len(pools))
	for i, name := range pools {
		shared[name] = n.iip(name, w.Pools[name], affs[i])
	}
	for i, c := range w.Campaigns {
		n.camps[i].iipNames = shared[c.IIP]
	}
	return n
}

// iip lists the accounts of the IIP called name and its pool's devices.
func (n *runNames) iip(name string, pool []*device.Worker, affs []*affiliate.App) iipNames {
	np := len(pool)
	refs := make([]stream.Ref, 2*np+len(affs))
	s := iipNames{devs: refs[:np:np], poolAccts: refs[np : 2*np : 2*np], affAccts: refs[2*np:]}
	s.iipAcct = n.strs.ref(mediator.IIPAccount(name))
	for i, a := range affs {
		s.affAccts[i] = n.strs.ref(mediator.AffiliateAccount(a.Package))
	}
	// IIPs without instrumented affiliates still have their own
	// (unobserved) distribution network.
	s.noAffAcct = n.strs.ref(mediator.AffiliateAccount("uninstrumented." + name))
	s.poolAcct = n.strs.ref(mediator.UserAccount("pool-" + name))
	for i, wk := range pool {
		s.poolAccts[i] = n.strs.ref(mediator.UserAccount(wk.ID))
		s.devs[i] = n.devs.ref(wk.ID)
	}
	return s
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
