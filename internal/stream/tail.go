package stream

import (
	"io"

	"repro/internal/dates"
)

// Tail is an online run-log consumer: it reads complete frames from an
// io.ReaderAt (typically the log file of a run still executing) and
// reports "no event yet" instead of failing when the next frame has not
// been fully written. Because it addresses the file by absolute offset and
// never buffers a partial frame, a Next that returns false is safely
// retried after the writer's next day-barrier flush.
type Tail struct {
	c       cursor
	started bool
}

// NewTail opens a tail over r. The preamble (magic, header, base snapshot)
// is consumed lazily by the first Next/Header call, so a Tail can be
// opened before the writer has flushed anything.
func NewTail(r io.ReaderAt) *Tail {
	return &Tail{c: newCursor(r)}
}

// Offset returns the byte offset of the next unread frame. While an
// event-batch frame is being unpacked it points past that frame (the
// batch was verified whole); at day barriers — where online consumers
// read it — the batch is fully drained and the offset is exact.
func (t *Tail) Offset() int64 { return t.c.off }

// Day returns the day of the last day-start read: for an event inside a
// day, the day it belongs to.
func (t *Tail) Day() dates.Date { return t.c.day }

// Header returns the run parameters once the preamble is readable.
func (t *Tail) Header() (Header, bool, error) {
	if err := t.start(); err != nil || !t.started {
		return Header{}, false, err
	}
	return t.c.hdr, true, nil
}

// Base returns the run-start snapshots once the preamble is readable.
func (t *Tail) Base() (Base, bool, error) {
	if err := t.start(); err != nil || !t.started {
		return Base{}, false, err
	}
	return t.c.base, true, nil
}

// start parses the preamble once enough of it is on disk.
func (t *Tail) start() error {
	if t.started {
		return nil
	}
	if err := t.c.start(); err != nil {
		if incomplete(err) {
			return nil
		}
		return err
	}
	t.started = true
	return nil
}

// Next decodes the next complete event into ev, returning false when no
// complete frame is available yet (retry after the writer flushes more).
// Event-batch frames are verified whole before their first sub-record is
// delivered and then unpacked one event per call; segment index frames
// are skipped.
func (t *Tail) Next(ev *Event) (bool, error) {
	if err := t.start(); err != nil || !t.started {
		return false, err
	}
	if err := t.c.next(ev); err != nil {
		if incomplete(err) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}
