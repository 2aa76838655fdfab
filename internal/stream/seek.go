package stream

import (
	"fmt"
	"io"

	"repro/internal/binenc"
	"repro/internal/dates"
)

// SegmentInfo describes one segment discovered by ScanIndex. The implicit
// first segment (everything before the first index frame) has Ordinal 0
// and no index frame: replaying it starts from the base snapshot. The
// index keeps no copy of a segment's embedded checkpoint;
// LogIndex.SegmentCheckpoint reads the one a seek restores from.
type SegmentInfo struct {
	Ordinal  int64
	FirstDay dates.Date
	FrameOff int64 // offset of the segment index frame (preamble end for segment 0)
	DataOff  int64 // offset of the first frame after the index frame
}

// DayInfo locates one day's frames: the offset of its day-start frame and
// the segment it falls in (an index into LogIndex.Segments).
type DayInfo struct {
	Day     dates.Date
	Offset  int64
	Segment int
}

// LogIndex is the seek directory of a run log, built by one forward
// header-hop scan: segment boundaries and their index frames' offsets,
// plus the day-start offset of every day. Batching keeps the frame count
// near a dozen per day, so the scan reads a few hundred bytes per
// simulated day regardless of event volume.
type LogIndex struct {
	Header   Header
	Base     Base
	Segments []SegmentInfo
	Days     []DayInfo
	End      int64 // offset after the last complete frame
	Torn     bool  // the log ends mid-frame (killed run)
}

// Segment returns the index of the last segment whose FirstDay is at or
// before day — the segment a seek to that day restores from.
func (x *LogIndex) Segment(day dates.Date) int {
	seg := 0
	for i := 1; i < len(x.Segments); i++ {
		if x.Segments[i].FirstDay <= day {
			seg = i
		}
	}
	return seg
}

// Day returns the day entry for day, or false when the log has none.
func (x *LogIndex) Day(day dates.Date) (DayInfo, bool) {
	for _, d := range x.Days {
		if d.Day == day {
			return d, true
		}
	}
	return DayInfo{}, false
}

// LastDay returns the most recent day the log started, or false for a
// log with no days yet.
func (x *LogIndex) LastDay() (dates.Date, bool) {
	if len(x.Days) == 0 {
		return 0, false
	}
	return x.Days[len(x.Days)-1].Day, true
}

// SegmentCheckpoint reads the reduced checkpoint embedded in segment i's
// index frame: it re-reads the frame from r, the log x indexes, checks its
// CRC and decodes it. Segment 0 has no index frame; its checkpoint is nil.
func (x *LogIndex) SegmentCheckpoint(r io.ReaderAt, i int) (*Checkpoint, error) {
	if i == 0 {
		return nil, nil
	}
	c := newCursor(r)
	return c.segmentCheckpoint(x.Segments[i].FrameOff)
}

// segmentCheckpoint reads the segment index frame at off and decodes its
// embedded checkpoint, which views the cursor's frame buffer.
func (c *cursor) segmentCheckpoint(off int64) (*Checkpoint, error) {
	k, payload, _, err := c.frame(off)
	if err == nil && k != KindSegment {
		err = fmt.Errorf("%w: %s frame at segment offset %d", ErrFrame, k, off)
	}
	if err != nil {
		return nil, err
	}
	seg, err := decodeSegment(payload)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(seg.Checkpoint)
}

// ScanIndex builds the seek directory of a run log. Only frame headers
// are read for the bulk of the log; day-start and segment index frames
// (both tiny) are read in full, CRC-verified. The scan stops cleanly at
// a torn trailing frame (killed run), marking the index Torn.
func ScanIndex(r io.ReaderAt) (*LogIndex, error) {
	c, err := openCursor(r)
	if err != nil {
		return nil, err
	}
	idx := &LogIndex{
		Header:   c.hdr,
		Base:     c.base,
		Segments: []SegmentInfo{{FrameOff: c.off, DataOff: c.off, FirstDay: c.hdr.WindowStart}},
	}
	for off := c.off; ; {
		f, err := c.frames.PeekAt(off)
		if err = frameErr(f, err); err != nil {
			if !incomplete(err) {
				return nil, err
			}
			idx.End, idx.Torn = off, err == io.ErrUnexpectedEOF
			return idx, nil
		}
		next := off + f.Size()
		switch k := Kind(f.Kind); k {
		case KindDayStart, KindSegment:
			_, payload, _, err := c.frame(off)
			if err != nil {
				idx.End, idx.Torn = off, true
				return idx, err
			}
			if k == KindDayStart {
				var ev Event
				if err := decodePayload(k, payload, &ev, nil, nil); err != nil {
					return nil, err
				}
				idx.Days = append(idx.Days, DayInfo{Day: ev.Day, Offset: off, Segment: len(idx.Segments) - 1})
			} else {
				seg, err := decodeSegment(payload)
				if err != nil {
					return nil, err
				}
				idx.Segments = append(idx.Segments, SegmentInfo{
					Ordinal: seg.Ordinal, FirstDay: seg.FirstDay, FrameOff: off, DataOff: next,
				})
			}
		}
		off = next
	}
}

// SeekToDay positions the tail at the day-start frame of day, so the
// next events delivered are that day's. It returns false when the log
// does not (yet) contain the day. The scan costs one header-hop pass; a
// long-lived tail that knows where it wants to resume should prefer this
// over re-reading history event by event.
func (t *Tail) SeekToDay(day dates.Date) (bool, error) {
	if err := t.start(); err != nil || !t.started {
		return false, err
	}
	idx, err := ScanIndex(t.c.src)
	if err != nil {
		return false, err
	}
	d, ok := idx.Day(day)
	if !ok {
		return false, nil
	}
	t.c.off = d.Offset
	t.c.batch, t.c.batchOff = nil, 0
	t.c.inDay = false
	return true, nil
}

// KindStats aggregates the byte cost of one kind in a log: standalone
// frames and batch sub-records of that kind, with payload, framing
// (frame headers and record length prefixes), and CRC bytes separated —
// exactly the split the E8 overhead argument is about.
type KindStats struct {
	Kind         Kind
	Frames       int64
	Records      int64
	PayloadBytes int64
	FramingBytes int64
	CRCBytes     int64
}

// Histogram scans a complete log and returns per-kind byte/count rows in
// kind order, plus the byte offset where the scan stopped (the end of the
// last complete frame). Event-batch frames attribute their sub-records'
// payload and length-prefix bytes to the sub-record kinds; the batch
// frame's own header and CRC stay on the event-batch row. A frame or
// record that does not parse ends the scan with an error, after the rows
// counted so far.
func Histogram(r io.ReaderAt) ([]KindStats, int64, error) {
	c, err := openCursor(r)
	if err != nil {
		return nil, 0, err
	}
	c.off = int64(len(Magic)) // walk again from the header frame, so the preamble counts too
	var rows [KindSegment + 1]KindStats
	for {
		k, payload, size, record, err := c.step()
		if err != nil {
			if incomplete(err) {
				err = nil
			}
			return presentRows(rows[:]), c.at, err
		}
		if k >= Kind(len(rows)) {
			continue
		}
		s := &rows[k]
		if record {
			s.Records++
			s.PayloadBytes += int64(len(payload))
			s.FramingBytes += size - int64(len(payload))
			continue
		}
		s.Frames++
		s.FramingBytes += binenc.FrameHeaderLen
		s.CRCBytes += binenc.FrameTrailerLen
		if k != KindEventBatch {
			s.PayloadBytes += int64(len(payload))
		}
	}
}

// presentRows returns the rows of the kinds the log holds, labelled.
func presentRows(rows []KindStats) []KindStats {
	var out []KindStats
	for k, s := range rows {
		if s.Frames+s.Records > 0 {
			s.Kind = Kind(k)
			out = append(out, s)
		}
	}
	return out
}
