package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/binenc"
	"repro/internal/dates"
)

// cursor is the one walk over a run log's frames and batch records:
// Reader, Tail, Replay, ScanValid and Histogram all read through it. It
// parses the preamble, then steps through frames, unpacking event-batch
// frames one sub-record per step. Incomplete input surfaces as io.EOF
// (nothing at the next frame) or io.ErrUnexpectedEOF (a frame cut short).
type cursor struct {
	src    io.ReaderAt
	frames binenc.FrameReader
	off    int64 // offset of the next unread frame
	hdr    Header
	base   Base

	// The current event-batch frame's payload (aliasing the frame
	// buffer) and the offset of its next unread sub-record. The whole
	// batch was CRC-verified before its first record is delivered, and
	// it is drained before the next frame read overwrites the buffer.
	batch    []byte
	batchOff int

	// at and kind locate the frame or batch record last read or failed
	// on: at is the start of its frame (a record's is its batch frame's),
	// kind its kind byte (a record that does not parse reports the batch).
	at   int64
	kind Kind

	// day is the day of the last day-start read, and inDay holds from a
	// day-start to its day-end. With checkDays, next refuses an event
	// that breaks that bracket (see dayBracketErr).
	day       dates.Date
	inDay     bool
	checkDays bool
}

// frame reads and verifies the frame at off, returning the offset after it.
func (c *cursor) frame(off int64) (Kind, []byte, int64, error) {
	f, err := c.frames.ReadAt(off)
	return Kind(f.Kind), f.Payload, off + f.Size(), frameErr(f, err)
}

// frameErr maps a frame-scan outcome to the run log's errors: a frame the
// input ends inside is io.ErrUnexpectedEOF, an oversize length ErrFrame,
// and a bad checksum ErrCRC. io.EOF (no frame there at all) passes as is.
func frameErr(f binenc.Frame, err error) error {
	switch {
	case errors.Is(err, binenc.ErrIncomplete):
		return io.ErrUnexpectedEOF
	case errors.Is(err, binenc.ErrOversize):
		return fmt.Errorf("%w: payload of %d bytes", ErrFrame, f.Len)
	case errors.Is(err, binenc.ErrCRC):
		return fmt.Errorf("%w in %s frame", ErrCRC, Kind(f.Kind))
	}
	return err
}

// incomplete reports whether err is a torn-tail outcome of frameErr.
func incomplete(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// start parses the preamble — magic, header frame, base frame — and
// positions the cursor at the first event frame.
func (c *cursor) start() error {
	var magic [len(Magic)]byte
	if err := binenc.ReadFullAt(c.src, magic[:], 0); err != nil {
		if errors.Is(err, binenc.ErrIncomplete) {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%w: %w", ErrBadMagic, err)
	}
	if string(magic[:]) != Magic {
		return ErrBadMagic
	}
	c.off = int64(len(Magic))
	k, payload, _, _, err := c.step()
	if err != nil {
		return fmt.Errorf("stream: reading header: %w", err)
	}
	if k != KindHeader {
		return fmt.Errorf("%w: first frame is %s, want header", ErrFrame, k)
	}
	hdr, err := decodeHeader(payload)
	if err != nil {
		return err
	}
	if k, payload, _, _, err = c.step(); err != nil {
		return fmt.Errorf("stream: reading base snapshot: %w", err)
	}
	if k != KindBase {
		return fmt.Errorf("%w: second frame is %s, want base", ErrFrame, k)
	}
	base, err := decodeBase(payload)
	if err != nil {
		return err
	}
	c.hdr, c.base = hdr, base
	return nil
}

// openCursor starts a cursor over a log at rest, where a preamble the
// input ends inside is malformed rather than not yet written.
func openCursor(r io.ReaderAt) (*cursor, error) {
	c := newCursor(r)
	if err := c.start(); err != nil {
		if incomplete(err) {
			return nil, fmt.Errorf("%w: log preamble incomplete", ErrFrame)
		}
		return nil, err
	}
	return &c, nil
}

// step reads the next unit of the log without decoding it: the next
// record of the event-batch frame being unpacked, else the next frame. A
// batch frame is itself a unit, read before its records. size is the
// unit's encoded length: header, payload and CRC for a frame; kind byte,
// length prefix and payload for a record.
func (c *cursor) step() (k Kind, payload []byte, size int64, record bool, err error) {
	if c.batchOff < len(c.batch) {
		k, payload, next, err := parseRecord(c.batch, c.batchOff)
		if err != nil {
			c.kind = KindEventBatch
			return c.kind, nil, 0, true, err
		}
		size, c.batchOff, c.kind = int64(next-c.batchOff), next, k
		return k, payload, size, true, nil
	}
	c.at = c.off
	k, payload, next, err := c.frame(c.off)
	if c.kind = k; err != nil {
		return k, nil, 0, false, err
	}
	c.off = next
	if k == KindEventBatch {
		c.batch, c.batchOff = payload, 0
	}
	return k, payload, next - c.at, false, nil
}

// next decodes the next event into ev: it steps over segment index
// frames and into event batches, and tracks the day bracket.
func (c *cursor) next(ev *Event) error {
	for {
		k, payload, _, _, err := c.step()
		if err != nil {
			return err
		}
		switch k {
		case KindHeader, KindBase:
			return fmt.Errorf("%w: duplicate %s frame", ErrFrame, k)
		case KindSegment:
			if _, err := decodeSegment(payload); err != nil {
				return err
			}
			continue
		case KindEventBatch:
			continue // its records follow
		}
		if err := decodePayload(k, payload, ev, c.base.Devices, c.base.Strings); err != nil {
			return err
		}
		day, inDay := c.day, c.inDay
		switch k {
		case KindDayStart:
			c.day, c.inDay = ev.Day, true
		case KindDayEnd:
			c.inDay = false
		}
		if c.checkDays {
			return dayBracketErr(ev, day, inDay)
		}
		return nil
	}
}

// kindSet is a set of kinds, bit k standing for Kind k.
type kindSet uint64

func (s kindSet) has(k Kind) bool { return s&(1<<k) != 0 }

// walkHistory steps the cursor through the log up to the frame boundary
// end, decoding only the records whose kind is in kinds and handing each
// to fn in log order; fn must not keep ev. Every frame on the way is
// CRC-verified, and nothing else is decoded. It is the walk that rebuilds
// the history a snapshot leaves out of the log that holds it.
func (c *cursor) walkHistory(end int64, kinds kindSet, fn func(ev *Event) error) error {
	var ev Event
	for c.off < end || c.batchOff < len(c.batch) {
		k, payload, _, _, err := c.step()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
		if !kinds.has(k) {
			continue
		}
		if err := decodePayload(k, payload, &ev, c.base.Devices, c.base.Strings); err != nil {
			return err
		}
		if err := fn(&ev); err != nil {
			return err
		}
	}
	if c.off != end {
		return fmt.Errorf("%w: frame at byte %d runs past byte %d", ErrFrame, c.at, end)
	}
	return nil
}

// dayBracketErr reports how ev breaks the day structure the writer emits,
// given the day the log was in before it: every event lies between a
// day-start and the day-end of the same day, and days do not nest. Replay
// and ScanValid hold a log to this one rule, so a prefix salvage keeps is
// one replay accepts.
func dayBracketErr(ev *Event, day dates.Date, inDay bool) error {
	switch ev.Kind {
	case KindDayStart:
		if inDay {
			return fmt.Errorf("%w: day %s started before %s ended", ErrFrame, ev.Day, day)
		}
	case KindDayEnd:
		if !inDay || ev.Day != day {
			return fmt.Errorf("%w: day-end for %s outside day", ErrFrame, ev.Day)
		}
	default:
		if !inDay {
			return fmt.Errorf("%w: %s event outside a day", ErrFrame, ev.Kind)
		}
	}
	return nil
}

// Reader iterates a complete run log from an io.Reader, verifying every
// frame's CRC. Event-batch frames are unpacked transparently (each Next
// yields one sub-record) and segment index frames are skipped, so
// consumers see the same event sequence for v2 and v3 logs. Use Tail for
// logs still being written.
type Reader struct {
	c cursor
}

// streamAt serves a cursor's reads from a sequential stream: the cursor
// reads each frame's header and then its body, so offsets only ever
// continue where the previous read stopped.
type streamAt struct {
	r   *bufio.Reader
	pos int64
}

func (s *streamAt) ReadAt(p []byte, off int64) (int, error) {
	if off != s.pos {
		return 0, fmt.Errorf("stream: run log read at byte %d, stream is at %d", off, s.pos)
	}
	n, err := io.ReadFull(s.r, p)
	s.pos += int64(n)
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	return n, err
}

func newCursor(src io.ReaderAt) cursor {
	return cursor{src: src, frames: binenc.NewFrameReader(src, maxFramePayload)}
}

func newStreamCursor(r io.Reader) cursor {
	return newCursor(&streamAt{r: bufio.NewReaderSize(r, 1<<16)})
}

// NewReader opens a run log: it consumes the magic, the header frame, and
// the base frame, leaving the reader positioned at the first event.
func NewReader(r io.Reader) (*Reader, error) {
	lr := &Reader{c: newStreamCursor(r)}
	if err := lr.c.start(); err != nil {
		return nil, err
	}
	return lr, nil
}

// newSectionReader wraps a reader positioned at a frame boundary mid-log
// (no preamble expected) with the log's already-decoded header and
// tables; seeking replays use it to consume a single segment.
func newSectionReader(r io.Reader, hdr Header, base Base) *Reader {
	lr := &Reader{c: newStreamCursor(r)}
	lr.c.hdr, lr.c.base = hdr, base
	return lr
}

// Header returns the run parameters.
func (r *Reader) Header() Header { return r.c.hdr }

// Base returns the run-start snapshots.
func (r *Reader) Base() Base { return r.c.base }

// Next decodes the next event into ev. It returns io.EOF at a clean end of
// log and io.ErrUnexpectedEOF when the log stops mid-frame (a killed run).
func (r *Reader) Next(ev *Event) error { return r.c.next(ev) }

// Day returns the day of the last day-start read: for an event inside a
// day, the day it belongs to.
func (r *Reader) Day() dates.Date { return r.c.day }
