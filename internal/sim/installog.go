package sim

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"os"

	"repro/internal/dates"
	"repro/internal/stream"
)

// InstallLog is the store-side device-resolved install stream. By default
// every record stays in RAM, exactly like the plain slice it replaces. For
// massive worlds EnableSpill bounds the resident tail: once the in-RAM
// window fills, it is flushed to an anonymous temp file in the v3 run-log
// format (CRC-framed day markers plus record-mode install batches, the
// same frames the event log uses), so peak memory is O(window) while the
// logical stream — Len, All, the checkpoint contents, the golden hashes —
// is byte-for-byte what the unbounded log would hold.
//
// The type is not safe for concurrent use; the engine appends only at day
// barriers, on one goroutine, and readers run between days or post-run.
type InstallLog struct {
	mem     []InstallRecord // resident tail (the whole log when not spilling)
	spilled int             // records already flushed to the spill file
	resets  int             // Reset count: invalidates checkpoint views

	window int    // spill threshold; 0 = unbounded in-RAM log
	dir    string // spill directory ("" = os.TempDir())

	w       *stream.Writer
	bw      *bufio.Writer
	f       *os.File // write handle; the path is unlinked at creation
	rf      *os.File // independent read handle for All iterations
	enc     stream.Encoder
	lastDay dates.Date
	haveDay bool
	err     error // sticky: first spill I/O failure
}

// Len returns the total number of records appended (spilled + resident).
func (l *InstallLog) Len() int { return l.spilled + len(l.mem) }

// Err returns the sticky spill I/O failure, if any. Appends never fail
// individually; the engine checks once per day barrier.
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
	l.window, l.dir = window, dir
	return nil
}

// Spilling reports whether a spill window is configured.
func (l *InstallLog) Spilling() bool { return l.window > 0 }

// Append adds records in order. In spill mode the resident tail is flushed
// whenever it reaches the window, so one call may spill mid-batch and a
// burst larger than the window never holds more than window records in
// RAM.
func (l *InstallLog) Append(recs ...InstallRecord) {
	if l.window <= 0 {
		l.mem = append(l.mem, recs...)
		return
	}
	for len(recs) > 0 {
		room := l.window - len(l.mem)
		if room > len(recs) {
			room = len(recs)
		}
		l.mem = append(l.mem, recs[:room]...)
		recs = recs[room:]
		if len(l.mem) >= l.window {
			l.flush()
		}
	}
}

// Reserve pre-grows the resident tail for an append of need records when
// its spare capacity is short, sizing the new backing array for est total
// records (the engine's remaining-window estimate). Spill mode caps the
// reservation at the window — the tail never grows past it.
func (l *InstallLog) Reserve(need, est int) {
	if l.window > 0 {
		if cap(l.mem) < l.window {
			grown := make([]InstallRecord, len(l.mem), l.window)
			copy(grown, l.mem)
			l.mem = grown
		}
		return
	}
	if cap(l.mem)-len(l.mem) >= need {
		return
	}
	if est < l.spilled+len(l.mem)+need {
		est = l.spilled + len(l.mem) + need
	}
	grown := make([]InstallRecord, len(l.mem), est-l.spilled)
	copy(grown, l.mem)
	l.mem = grown
}

// All ranges over every record in append order: the spilled prefix
// streamed back from disk, then the resident tail. Check Err after a full
// iteration when spilling — a read failure ends the sequence early.
func (l *InstallLog) All() iter.Seq[InstallRecord] {
	return func(yield func(InstallRecord) bool) {
		if l.spilled > 0 && !l.iterSpill(yield) {
			return
		}
		for _, rec := range l.mem {
			if !yield(rec) {
				return
			}
		}
	}
}

// Slice returns the log as one contiguous slice. When nothing has spilled
// this is the resident tail itself (no copy — callers must not modify);
// a spilled log is materialized, which costs O(run) memory and defeats
// the spill bound, so hot paths should range All instead.
func (l *InstallLog) Slice() []InstallRecord {
	if l.spilled == 0 {
		return l.mem
	}
	out := make([]InstallRecord, 0, l.Len())
	for rec := range l.All() {
		out = append(out, rec)
	}
	return out
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
			if !yield(stream.Install{Device: rec.Device, App: rec.App, Day: rec.Day}, nil) {
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

// Reset discards every record (spilled state included) and reserves
// capacity for n records, clamped to the window when spilling. Restore
// uses it to rebuild the log from a checkpoint.
func (l *InstallLog) Reset(n int) {
	l.resets++
	l.mem = l.mem[:0]
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
	if l.window > 0 && n > l.window {
		n = l.window
	}
	if cap(l.mem) < n {
		l.mem = make([]InstallRecord, 0, n)
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
		l.mem = l.mem[:0] // failed spill: keep memory bounded anyway
		return
	}
	if l.w == nil {
		if err := l.open(); err != nil {
			l.err = err
			l.mem = l.mem[:0]
			return
		}
	}
	for i := 0; i < len(l.mem); {
		day := l.mem[i].Day
		if !l.haveDay || day != l.lastDay {
			l.w.DayStart(day)
			l.lastDay, l.haveDay = day, true
		}
		l.enc.Reset()
		for i < len(l.mem) && l.mem[i].Day == day && l.enc.Len() < spillChunkBytes {
			rec := &l.mem[i]
			l.enc.InstallRef(l.enc.StringRef(rec.App), rec.App, l.enc.DeviceRef(rec.Device), rec.Device, 0)
			i++
		}
		l.w.EventBatch(l.enc.Bytes())
	}
	if err := l.w.Err(); err != nil && l.err == nil {
		l.err = err
	}
	l.spilled += len(l.mem)
	l.mem = l.mem[:0]
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
	var day dates.Date
	for n := 0; n < l.spilled; {
		if err := r.Next(&ev); err != nil {
			l.err = fmt.Errorf("sim: reading install-log spill: %w", err)
			return true
		}
		switch ev.Kind {
		case stream.KindDayStart:
			day = ev.Day
		case stream.KindInstall:
			if !yield(InstallRecord{Device: ev.Device, App: ev.Pkg, Day: day}) {
				return false
			}
			n++
		}
	}
	return true
}
