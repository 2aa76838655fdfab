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
// never resurrect data written after a fault. The error is non-nil only
// when the preamble (magic, header, base snapshot) is unreadable, i.e.
// nothing is salvageable.
func ScanValid(r io.ReaderAt, size int64) (RecoverInfo, error) {
	info := RecoverInfo{Size: size}
	t := NewTail(r)
	if err := t.start(); err != nil {
		if c := asCorruption(int64(len(Magic)), 0, err); c != nil {
			info.Corruption = c
		}
		return info, fmt.Errorf("stream: unsalvageable log (bad preamble): %w", err)
	}
	if !t.started {
		return info, fmt.Errorf("%w: log preamble incomplete", ErrFrame)
	}
	// An intact preamble with no days yet salvages to the preamble end: a
	// fresh run restarts from day one on a truncated-but-valid file.
	info.ValidEnd, info.ScannedEnd = t.c.off, t.c.off
	off := t.c.off
	st := validScanState{info: &info, devices: t.c.base.Devices, strings: t.c.base.Strings}
	for off < size {
		k, payload, next, err := t.c.frame(off)
		info.ScannedEnd = off
		if err != nil {
			// A torn tail (the frame runs past the input) is no corruption.
			info.Corruption = asCorruption(off, k, err)
			return info, nil
		}
		if c := st.frame(off, next, k, payload); c != nil {
			info.Corruption = c
			return info, nil
		}
		off = next
	}
	info.ScannedEnd = off
	return info, nil
}

// validScanState applies ScanValid's per-frame checks: every payload must
// decode against the log's own tables, and the day structure must hold
// (events only inside a day-start..day-end bracket, exactly as the
// engine emits and Replay requires) — a frame whose CRC happens to check
// but whose content could not have been written by a sane run is
// corruption, not salvage material.
type validScanState struct {
	info    *RecoverInfo
	devices []string
	strings []string
	ev      Event
	day     dates.Date
	inDay   bool
	// sawDayEnd marks that the frame being checked closed a day; the
	// valid prefix then extends to that frame's end.
	sawDayEnd bool
}

func (st *validScanState) frame(off, next int64, k Kind, payload []byte) *FrameCorruption {
	bad := func(err error) *FrameCorruption {
		if c := asCorruption(off, k, err); c != nil {
			return c
		}
		return &FrameCorruption{Offset: off, Kind: k, Err: err}
	}
	st.sawDayEnd = false
	switch k {
	case KindHeader, KindBase:
		return bad(fmt.Errorf("%w: duplicate %s frame", ErrFrame, k))
	case KindSegment:
		if _, err := decodeSegment(payload); err != nil {
			return bad(err)
		}
		// A segment index frame is written at the day barrier, right
		// after the day-end frame: when it directly extends the valid
		// prefix, keep it (a resumed writer with checkpointed
		// segmentation state continues right after it).
		if !st.inDay && off == st.info.ValidEnd {
			st.info.ValidEnd = next
		}
		return nil
	case KindEventBatch:
		// The batch CRC was verified whole; decode every sub-record so a
		// CRC-updated-but-garbage batch cannot be salvaged.
		for ro := 0; ro < len(payload); {
			rk, rp, rnext, err := parseRecord(payload, ro)
			if err != nil {
				return bad(err)
			}
			if c := st.record(off, rk, rp); c != nil {
				return c
			}
			ro = rnext
		}
	default:
		if c := st.record(off, k, payload); c != nil {
			return c
		}
	}
	if st.sawDayEnd && !st.inDay {
		st.info.ValidEnd = next
	}
	return nil
}

// record checks one event frame or batch sub-record.
func (st *validScanState) record(off int64, k Kind, payload []byte) *FrameCorruption {
	bad := func(err error) *FrameCorruption {
		if c := asCorruption(off, k, err); c != nil {
			return c
		}
		return &FrameCorruption{Offset: off, Kind: k, Err: err}
	}
	if err := decodePayload(k, payload, &st.ev, st.devices, st.strings); err != nil {
		return bad(err)
	}
	switch k {
	case KindDayStart:
		if st.inDay {
			return bad(fmt.Errorf("%w: day %s started before %s ended", ErrFrame, st.ev.Day, st.day))
		}
		st.day, st.inDay = st.ev.Day, true
	case KindDayEnd:
		if !st.inDay || st.ev.Day != st.day {
			return bad(fmt.Errorf("%w: day-end for %s outside day", ErrFrame, st.ev.Day))
		}
		st.inDay = false
		st.sawDayEnd = true
		st.info.Days++
		st.info.LastDay = st.ev.Day
	default:
		if !st.inDay {
			return bad(fmt.Errorf("%w: %s event outside a day", ErrFrame, k))
		}
	}
	return nil
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
