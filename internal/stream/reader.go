package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/binenc"
)

// cursor is the frame walk Reader and Tail share: it parses the preamble
// and then turns frames into events, unpacking event-batch frames one
// sub-record per call. Incomplete input surfaces as io.EOF (nothing at the
// next frame) or io.ErrUnexpectedEOF (a frame cut short).
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
	k, payload, next, err := c.frame(int64(len(Magic)))
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
	if k, payload, next, err = c.frame(next); err != nil {
		return fmt.Errorf("stream: reading base snapshot: %w", err)
	}
	if k != KindBase {
		return fmt.Errorf("%w: second frame is %s, want base", ErrFrame, k)
	}
	base, err := decodeBase(payload)
	if err != nil {
		return err
	}
	c.hdr, c.base, c.off = hdr, base, next
	return nil
}

// next decodes the next event into ev. Only frames go through here; the
// records of a batch are a direct parse-and-decode loop.
func (c *cursor) next(ev *Event) error {
	for {
		if c.batchOff < len(c.batch) {
			k, payload, next, err := parseRecord(c.batch, c.batchOff)
			if err != nil {
				return err
			}
			c.batchOff = next
			return decodePayload(k, payload, ev, c.base.Devices, c.base.Strings)
		}
		k, payload, next, err := c.frame(c.off)
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
		case KindEventBatch:
			c.batch, c.batchOff = payload, 0
		default:
			if err := decodePayload(k, payload, ev, c.base.Devices, c.base.Strings); err != nil {
				return err
			}
			c.off = next
			return nil
		}
		c.off = next
	}
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
