package stream

import (
	"fmt"
	"io"
	"os"

	"repro/internal/dates"
)

// FrameCorruption locates the first undecodable frame of a damaged run
// log: the byte offset of its header, the kind byte it claims, and what
// was wrong with it. A merely truncated log (clean kill mid-write) has no
// corruption — its tail is simply incomplete.
type FrameCorruption struct {
	Offset int64
	Kind   Kind
	Err    error
}

func (c *FrameCorruption) Error() string {
	return fmt.Sprintf("corrupt %s frame at byte %d: %v", c.Kind, c.Offset, c.Err)
}

func (c *FrameCorruption) Unwrap() error { return c.Err }

// RecoverInfo is the salvage report of a damaged log: how much of it is
// trustworthy and where a resumed consumer should pick up.
type RecoverInfo struct {
	// Days counts complete days in the salvaged prefix; LastDay is the
	// final one (valid when Days > 0) — the resume point.
	Days    int
	LastDay dates.Date
	// ValidEnd is the end of the salvaged prefix: the byte offset just
	// after the last complete day's final frame (its day-end frame, plus
	// a complete segment index frame when one follows immediately).
	// Truncating the log here leaves a prefix ScanIndex and Replay accept.
	ValidEnd int64
	// ScannedEnd is where the forward scan stopped: the input size for a
	// fully intact log, the torn frame's start for a truncated one, the
	// corruption offset otherwise.
	ScannedEnd int64
	// Size is the input size; Size - ValidEnd is what salvage drops.
	Size int64
	// Corruption describes the first undecodable frame, nil when the log
	// is intact or only truncated mid-frame.
	Corruption *FrameCorruption
}

// Dropped returns the bytes a salvage would discard.
func (ri RecoverInfo) Dropped() int64 { return ri.Size - ri.ValidEnd }

// ScanValid walks a run log front to back, CRC-verifying every frame in
// full, and reports the longest prefix ending at a day boundary. Unlike
// ScanIndex — which probes only frame headers and fails outright on a
// torn tail — ScanValid is built for damaged input: it never trusts
// bytes past the first corrupt or incomplete frame, so a salvage can
// never resurrect data written after a fault. Every payload must decode
// against the log's own tables and every event must keep the day bracket
// Replay requires: a frame whose CRC happens to check but whose content
// could not have been written by a sane run is corruption, not salvage
// material. The error is non-nil only when the preamble (magic, header,
// base snapshot) is unreadable, i.e. nothing is salvageable.
func ScanValid(r io.ReaderAt, size int64) (RecoverInfo, error) {
	info := RecoverInfo{Size: size}
	c := newCursor(io.NewSectionReader(r, 0, size))
	if err := c.start(); err != nil {
		if incomplete(err) {
			return info, fmt.Errorf("%w: log preamble incomplete", ErrFrame)
		}
		info.Corruption = asCorruption(int64(len(Magic)), 0, err)
		return info, fmt.Errorf("stream: unsalvageable log (bad preamble): %w", err)
	}
	c.checkDays = true
	// closed marks the cursor standing at a day boundary: the preamble
	// end (a fresh run restarts from day one on it) or the end of a frame
	// that closed a day. Whatever the next read skips before it delivers
	// or fails — segment index frames, which a resumed writer with
	// checkpointed segmentation state continues after, or an empty event
	// batch — is whole and outside any day, so the prefix extends over it.
	// A day counts once the frame that closes it ends at a boundary.
	var ev Event
	days, last := 0, dates.Date(0)
	for closed := true; ; {
		err := c.next(&ev)
		if closed {
			info.ValidEnd = c.at
		}
		if err != nil {
			// A torn tail (the frame runs past the input) is no corruption.
			info.ScannedEnd = c.at
			info.Corruption = asCorruption(c.at, c.kind, err)
			return info, nil
		}
		if ev.Kind == KindDayEnd {
			days, last = days+1, ev.Day
		}
		if closed = ev.Kind == KindDayEnd && c.batchOff == len(c.batch); closed {
			info.Days, info.LastDay = days, last
		}
	}
}

// asCorruption wraps a scan error as a located corruption; pure
// truncation (io.EOF family) is not corruption.
func asCorruption(off int64, k Kind, err error) *FrameCorruption {
	if err == nil || incomplete(err) {
		return nil
	}
	return &FrameCorruption{Offset: off, Kind: k, Err: err}
}

// Recover salvages a run log with a torn tail — a partial frame or a
// bad CRC left by a crash mid-write — by truncating the file to the last
// valid day boundary and returning the resume point. The salvaged prefix
// passes ScanIndex, Replay, and Tail unchanged; a worker resuming the
// run pairs it with the matching checkpoint (whose LogOffset is at or
// before the salvaged end, since checkpoints are taken after the day's
// frames are flushed). A log whose preamble is unreadable is not
// salvageable and is left untouched.
func Recover(path string) (RecoverInfo, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return RecoverInfo{}, fmt.Errorf("stream: recovering run log: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return RecoverInfo{}, fmt.Errorf("stream: recovering run log: %w", err)
	}
	info, err := ScanValid(f, fi.Size())
	if err != nil {
		return info, err
	}
	if info.ValidEnd < info.Size {
		if err := f.Truncate(info.ValidEnd); err != nil {
			return info, fmt.Errorf("stream: truncating salvaged log: %w", err)
		}
	}
	return info, nil
}
