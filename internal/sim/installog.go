package sim

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"slices"

	"repro/internal/dates"
	"repro/internal/stream"
)

// InstallLog is the store-side device-resolved install stream. By default
// every record stays in RAM. The resident records live in fixed-size
// chunks: appends fill the last chunk and start a new one when it is full,
// so the log grows without ever relocating the records it holds. For
// massive worlds EnableSpill bounds the resident tail: once the in-RAM
// window fills, it is flushed to an anonymous temp file in the v3 run-log
// format (CRC-framed day markers plus record-mode install batches, the
// same frames the event log uses) and its chunks are reused, so peak
// memory is O(window) while the logical stream — Len, All, the checkpoint
// contents, the golden hashes — is byte-for-byte what the unbounded log
// would hold. A log made CountOnly keeps no records at all, only their
// count, for a run whose readers take the installs from elsewhere.
//
// A resident record is 12 pointer-free bytes (installRec): the device and
// the app as IDs into the log's name table (installNames), which readers
// turn back into names on the way out. The chunks are therefore never
// scanned by the garbage collector, however long the run.
//
// The type is not safe for concurrent use; the engine appends only at day
// barriers, on one goroutine, and readers run between days or post-run.
type InstallLog struct {
	// chunks[:used] hold the resident records in append order (the whole
	// log when not spilling); each is full but the last. Chunks past used
	// are empty and wait for reuse.
	chunks  [][]installRec
	names   installNames
	used    int
	n       int // resident records
	spilled int // records already flushed to the spill file
	resets  int // Reset count: invalidates checkpoint views

	window    int    // spill threshold; 0 = unbounded in-RAM log
	dir       string // spill directory ("" = os.TempDir())
	countOnly bool   // appends are counted in n, never kept

	w       *stream.Writer
	bw      *bufio.Writer
	f       *os.File // write handle; the path is unlinked at creation
	rf      *os.File // independent read handle for All iterations
	enc     stream.Encoder
	lastDay dates.Date
	haveDay bool
	err     error // sticky: first spill I/O failure
}

// installChunk is the record capacity of one resident chunk (48 KB); a
// spill window smaller than this sizes its chunks to the window instead.
const installChunk = 1 << 12

// installRec is one resident install record: the device and the app as
// name-table IDs (installNames) and the day. It holds no pointer.
type installRec struct {
	dev, app uint32
	day      int32
}

// installNames is an install log's name table. An ID below overflowID is
// positional: in a record's dev field it indexes devs, the run log's
// device table, and in its app field pkgs, the store's packages (package
// i of Store.Packages() is run-log string ID i+1). The engine sets both
// lists from the run's name tables (runNames) at its build
// (InstallLog.setNames) and hands the log those IDs, so an engine record
// reaches its chunk without a hash lookup. Every other name, in either field — a rotated
// device ID, a restored or test-appended name — is interned in the
// overflow as it is appended, in install-log order, and gets
// overflowID|i. The overflow holds only what resident records name: it
// empties whenever the resident records do.
type installNames struct {
	devs, pkgs []string
	over       []string
	overIdx    map[string]uint32
}

// overflowID marks an overflow ID; the low bits index installNames.over.
const overflowID = 1 << 31

// dev returns the device name of a record's dev field.
func (t *installNames) dev(id uint32) string {
	if id&overflowID != 0 {
		return t.over[id&^overflowID]
	}
	return t.devs[id]
}

// app returns the package name of a record's app field.
func (t *installNames) app(id uint32) string {
	if id&overflowID != 0 {
		return t.over[id&^overflowID]
	}
	return t.pkgs[id]
}

// intern returns name's overflow ID, adding it on first sight.
func (t *installNames) intern(name string) uint32 {
	if id, ok := t.overIdx[name]; ok {
		return id
	}
	if t.overIdx == nil {
		t.overIdx = make(map[string]uint32)
	}
	id := overflowID | uint32(len(t.over))
	t.over = append(t.over, name)
	t.overIdx[name] = id
	return id
}

// pendingInstall is an install record as the engine's campaign sinks
// buffer it until the day barrier: the device as the engine resolved it
// (ID = device-table position + 1, or 0 for a name outside the table),
// the app's package position, and the day.
type pendingInstall struct {
	dev stream.Ref
	app uint32
	day dates.Date
}

// ErrInstallsNotKept is the Err of a CountOnly log that was read: it
// counted its records but kept none, so there was nothing to read.
var ErrInstallsNotKept = errors.New("sim: install log keeps no records (count-only)")

// Len returns the total number of records appended (spilled + resident).
func (l *InstallLog) Len() int { return l.spilled + l.n }

// Err returns the sticky spill I/O failure, if any. Appends never fail
// individually; the engine checks once per day barrier. A read of the
// spill (All) that fails or finds the log closed records its failure
// here too, so a caller that ranged All checks Err before trusting what
// it read.
func (l *InstallLog) Err() error { return l.err }

// EnableSpill bounds the resident tail at window records, spilling older
// records to a temp file under dir ("" = the system temp directory). Call
// before the first append; enabling on a log that already spilled is a
// no-op error.
func (l *InstallLog) EnableSpill(dir string, window int) error {
	if window <= 0 {
		return fmt.Errorf("sim: install-log spill window must be positive, got %d", window)
	}
	if l.w != nil {
		return fmt.Errorf("sim: install log is already spilling")
	}
	if l.countOnly {
		return fmt.Errorf("sim: a count-only install log cannot spill")
	}
	l.window, l.dir = window, dir
	return nil
}

// CountOnly makes the log count the records appended to it without
// keeping them: Len stays exact, but All yields nothing and sets Err to
// ErrInstallsNotKept, so TruthLabels, DetectionEvents and a checkpoint
// view fail instead of reading an empty history. Call it on an empty
// log that does not spill.
func (l *InstallLog) CountOnly() error {
	if l.Len() > 0 {
		return fmt.Errorf("sim: install log already holds %d records", l.Len())
	}
	if l.window > 0 {
		return fmt.Errorf("sim: a spilling install log cannot be count-only")
	}
	l.countOnly = true
	return nil
}

// Spilling reports whether a spill window is configured.
func (l *InstallLog) Spilling() bool { return l.window > 0 }

// Append adds records in order, interning each name in the overflow of
// the log's name table (the engine's path is appendPending, which takes
// the table IDs it resolved at its build). In spill mode the resident
// tail is flushed whenever it reaches the window, so one call may spill
// mid-batch and a burst larger than the window never holds more than
// window records in RAM.
func (l *InstallLog) Append(recs ...InstallRecord) {
	if l.countOnly {
		l.n += len(recs)
		return
	}
	for i := range recs {
		r := &recs[i]
		l.push(installRec{dev: l.names.intern(r.Device), app: l.names.intern(r.App), day: int32(r.Day)})
	}
}

// appendPending adds the engine's buffered records in order. A device
// the engine resolved keeps its table position; only one outside the
// table (ID 0) is interned, so an in-table record costs no hash lookup.
func (l *InstallLog) appendPending(recs []pendingInstall) {
	if l.countOnly {
		l.n += len(recs)
		return
	}
	for i := range recs {
		p := &recs[i]
		dev := p.dev.ID - 1
		if p.dev.ID == 0 {
			dev = l.names.intern(p.dev.S)
		}
		l.push(installRec{dev: dev, app: p.app, day: int32(p.day)})
	}
}

// push adds one record to the tail chunk, flushing a full spill window.
func (l *InstallLog) push(r installRec) {
	c := l.tail()
	*c = append(*c, r)
	l.n++
	if l.window > 0 && l.n >= l.window {
		l.flush()
	}
}

// setNames makes devs and pkgs the name table's positional lists. A list
// that extends the current one (the engine rebuilt on the same world,
// after more apps were published) keeps every ID; otherwise the resident
// records' positional names move to the overflow first.
func (l *InstallLog) setNames(devs, pkgs []string) {
	t := &l.names
	extends := func(list, prefix []string) bool {
		return len(prefix) <= len(list) && slices.Equal(list[:len(prefix)], prefix)
	}
	if !extends(devs, t.devs) || !extends(pkgs, t.pkgs) {
		for _, c := range l.chunks[:l.used] {
			for i := range c {
				r := &c[i]
				if r.dev&overflowID == 0 {
					r.dev = t.intern(t.devs[r.dev])
				}
				if r.app&overflowID == 0 {
					r.app = t.intern(t.pkgs[r.app])
				}
			}
		}
	}
	t.devs, t.pkgs = devs, pkgs
}

// tail returns the chunk the next append fills: the last resident chunk
// while it has room, else the next empty chunk, reused or new.
func (l *InstallLog) tail() *[]installRec {
	if l.used > 0 {
		if c := &l.chunks[l.used-1]; len(*c) < cap(*c) {
			return c
		}
	}
	if l.used == len(l.chunks) {
		l.chunks = append(l.chunks, make([]installRec, 0, l.chunkCap()))
	}
	l.used++
	return &l.chunks[l.used-1]
}

func (l *InstallLog) chunkCap() int {
	if l.window > 0 && l.window < installChunk {
		return l.window
	}
	return installChunk
}

// resident ranges over the in-RAM records in append order, their names
// resolved through the name table.
func (l *InstallLog) resident(yield func(InstallRecord) bool) {
	t := &l.names
	for _, c := range l.chunks[:l.used] {
		for _, r := range c {
			if !yield(InstallRecord{Device: t.dev(r.dev), App: t.app(r.app), Day: dates.Date(r.day)}) {
				return
			}
		}
	}
}

// dropResident empties the resident chunks for reuse, and with them the
// name table's overflow, which only resident records refer to.
func (l *InstallLog) dropResident() {
	for i := range l.chunks[:l.used] {
		l.chunks[i] = l.chunks[i][:0]
	}
	l.used, l.n = 0, 0
	clear(l.names.over)
	l.names.over = l.names.over[:0]
	clear(l.names.overIdx)
}

// All ranges over every record in append order: the spilled prefix
// streamed back from disk, then the resident tail. Check Err after a full
// iteration when spilling — a read failure ends the sequence early — and
// on a CountOnly log, where the sequence is empty.
func (l *InstallLog) All() iter.Seq[InstallRecord] {
	return func(yield func(InstallRecord) bool) {
		if l.countOnly {
			if l.err == nil {
				l.err = ErrInstallsNotKept
			}
			return
		}
		if l.spilled > 0 && !l.iterSpill(yield) {
			return
		}
		for rec := range l.resident {
			if !yield(rec) {
				return
			}
		}
	}
}

// CheckpointView returns the log's current records as a checkpoint's
// install view: no copy, the records stream from the log (and its spill
// file) whenever the checkpoint is written. Appends after the call do not
// show through; a Reset does, so the view then fails instead of reading
// another history.
func (l *InstallLog) CheckpointView() stream.Installs {
	n, resets := l.Len(), l.resets
	return stream.NewInstalls(n, func(yield func(stream.Install, error) bool) {
		if l.resets != resets {
			yield(stream.Install{}, fmt.Errorf("sim: install log was reset after the checkpoint was taken"))
			return
		}
		i := 0
		for rec := range l.All() {
			if i == n {
				return
			}
			if !yield(rec, nil) {
				return
			}
			i++
		}
		if err := l.Err(); err != nil {
			yield(stream.Install{}, err)
		} else if i < n {
			yield(stream.Install{}, fmt.Errorf("sim: install log holds %d records, checkpoint expects %d", i, n))
		}
	})
}

// Reset discards every record (spilled state included) and allocates
// chunks for n records up front, at most the window's worth when
// spilling, none when CountOnly. Restore uses it to rebuild the log from
// a checkpoint.
func (l *InstallLog) Reset(n int) {
	l.resets++
	l.dropResident()
	l.spilled = 0
	l.haveDay = false
	if l.w != nil {
		// Rewind the unlinked spill file and start a fresh log on it.
		l.bw.Reset(io.Discard) // drop unflushed frames of the old log
		if err := l.f.Truncate(0); err == nil {
			_, err = l.f.Seek(0, io.SeekStart)
			if err != nil && l.err == nil {
				l.err = fmt.Errorf("sim: resetting install-log spill: %w", err)
			}
		} else if l.err == nil {
			l.err = fmt.Errorf("sim: resetting install-log spill: %w", err)
		}
		l.bw.Reset(l.f)
		l.w = nil // recreated (with a fresh preamble) at the next flush
	}
	if l.countOnly {
		return
	}
	if l.window > 0 && n > l.window {
		n = l.window
	}
	for size := l.chunkCap(); len(l.chunks)*size < n; {
		l.chunks = append(l.chunks, make([]installRec, 0, size))
	}
}

// Close releases the spill file handles. Safe on a log that never spilled.
func (l *InstallLog) Close() error {
	var first error
	if l.f != nil {
		if l.w != nil && l.w.Err() == nil {
			first = l.bw.Flush()
		}
		if err := l.f.Close(); first == nil {
			first = err
		}
		l.f, l.bw, l.w = nil, nil, nil
	}
	if l.rf != nil {
		if err := l.rf.Close(); first == nil {
			first = err
		}
		l.rf = nil
	}
	return first
}

// open creates the spill file (unlinked immediately, so a crashed run
// leaks nothing) and writes the v3 preamble: magic, a minimal header, and
// an empty base frame. No device or string tables — install frames inline
// their strings, which keeps the spill self-contained.
func (l *InstallLog) open() error {
	dir := l.dir
	if dir == "" {
		dir = os.TempDir()
	}
	if l.f == nil {
		f, err := os.CreateTemp(dir, "installog-*.spill")
		if err != nil {
			return fmt.Errorf("sim: creating install-log spill: %w", err)
		}
		rf, err := os.Open(f.Name())
		if err != nil {
			f.Close()
			os.Remove(f.Name())
			return fmt.Errorf("sim: opening install-log spill: %w", err)
		}
		os.Remove(f.Name())
		l.f, l.rf = f, rf
		l.bw = bufio.NewWriterSize(f, 1<<16)
		l.enc.SetRecordMode(true)
	}
	w, err := stream.NewWriter(l.bw, stream.Header{Version: stream.Version}, stream.Base{})
	if err != nil {
		return fmt.Errorf("sim: starting install-log spill: %w", err)
	}
	l.w = w
	return nil
}

// spillChunkBytes caps one event-batch frame of spilled installs; flushes
// larger than this split into multiple frames.
const spillChunkBytes = 1 << 20

// flush appends the resident tail to the spill file and empties it. Day
// markers are emitted exactly at day changes, so the reader recovers each
// record's day from the enclosing frame just like the run log proper.
func (l *InstallLog) flush() {
	if l.err != nil {
		l.dropResident() // failed spill: keep memory bounded anyway
		return
	}
	if l.w == nil {
		if err := l.open(); err != nil {
			l.err = err
			l.dropResident()
			return
		}
	}
	// One event-batch frame per run of same-day records, split when it
	// reaches spillChunkBytes.
	l.enc.Reset()
	for rec := range l.resident {
		if l.enc.Len() > 0 && (rec.Day != l.lastDay || l.enc.Len() >= spillChunkBytes) {
			l.w.EventBatch(l.enc.Bytes())
			l.enc.Reset()
		}
		if !l.haveDay || rec.Day != l.lastDay {
			l.w.DayStart(rec.Day)
			l.lastDay, l.haveDay = rec.Day, true
		}
		l.enc.Install(stream.Ref{S: rec.App}, stream.Ref{S: rec.Device}, 0)
	}
	if l.enc.Len() > 0 {
		l.w.EventBatch(l.enc.Bytes())
	}
	if err := l.w.Err(); err != nil && l.err == nil {
		l.err = err
	}
	l.spilled += l.n
	l.dropResident()
}

// iterSpill streams the spilled prefix back from disk. The write buffer is
// flushed first so the read handle sees every frame; the read uses an
// independent section reader, so iterating never perturbs the writer.
func (l *InstallLog) iterSpill(yield func(InstallRecord) bool) bool {
	if l.err != nil {
		return true // records lost to a failed spill; surface via Err
	}
	if l.rf == nil {
		l.err = fmt.Errorf("sim: reading install-log spill: log is closed")
		return true
	}
	if err := l.bw.Flush(); err != nil {
		l.err = fmt.Errorf("sim: flushing install-log spill: %w", err)
		return true
	}
	sec := io.NewSectionReader(l.rf, 0, l.w.Offset())
	r, err := stream.NewReader(sec)
	if err != nil {
		l.err = fmt.Errorf("sim: reading install-log spill: %w", err)
		return true
	}
	var ev stream.Event
	for n := 0; n < l.spilled; {
		if err := r.Next(&ev); err != nil {
			l.err = fmt.Errorf("sim: reading install-log spill: %w", err)
			return true
		}
		for rec := range ev.Installs(r.Day()) {
			if !yield(rec) {
				return false
			}
			n++
		}
	}
	return true
}
