package stream

import (
	"fmt"
	"io"
	"time"

	"repro/internal/binenc"
	"repro/internal/dates"
)

// DefaultSegmentBytes is the segment-rotation threshold a fresh writer
// starts with: once a segment's frames exceed it, the run loop opens a
// new segment (index frame + embedded checkpoint) at the next day
// boundary. Small logs never reach it and stay single-segment.
const DefaultSegmentBytes = 64 << 20

// Writer appends a run log to an io.Writer. It is not safe for concurrent
// use: the engine writes only at day barriers, on one goroutine.
//
// Offset tracks the total bytes written (including the preamble), which is
// what checkpoints record so a resumed run knows where to truncate and
// continue the file.
type Writer struct {
	w    io.Writer
	off  int64
	err  error   // sticky: first write failure; all later writes refuse
	enc  Encoder // scratch for single-event writes
	tab  map[string]uint32
	stab map[string]uint32

	// Segmentation state. Rotation decisions depend only on these byte
	// offsets, which are deterministic, so segment frames land at the
	// same offsets for any worker count and across kill/resume.
	segBytes   int64 // rotation threshold; <= 0 disables rotation
	segStart   int64 // offset where the current segment's frames begin
	segOrdinal int64 // 0 = implicit first segment (replay from base)

	// metrics, when non-nil, counts bytes/frames/flushes. Pure
	// observation: no field of the write path reads it, so attaching
	// metrics cannot change the log bytes.
	metrics *WriterMetrics
}

// SetMetrics attaches throughput/latency instrumentation (nil detaches).
func (w *Writer) SetMetrics(m *WriterMetrics) { w.metrics = m }

// AddBatchRecords forwards engine-reported event-record counts to the
// attached metrics (no-op without metrics): the writer never parses its
// batch payloads, so the record count must come from the encoder side.
func (w *Writer) AddBatchRecords(n int64) { w.metrics.AddBatchRecords(n) }

// NewWriter opens a fresh run log on w: magic, header frame, base frame.
func NewWriter(w io.Writer, h Header, base Base) (*Writer, error) {
	lw := &Writer{w: w, tab: base.DeviceTable(), stab: base.StringTable(), segBytes: DefaultSegmentBytes}
	lw.enc.SetDeviceTable(lw.tab)
	lw.enc.SetStringTable(lw.stab)
	if err := lw.writeRaw([]byte(Magic)); err != nil {
		return nil, err
	}
	lw.enc.Header(h)
	lw.enc.Base(base)
	if err := lw.flushScratch(); err != nil {
		return nil, err
	}
	lw.segStart = lw.off
	return lw, nil
}

// ResumeWriter continues an existing run log whose first offset bytes are
// already on disk (the caller truncates the file to the checkpoint's
// LogOffset and seeks to the end). No preamble is written; subsequent
// frames continue the byte stream exactly where the checkpointed run
// stopped. devices and strings must be the same tables the original log's
// base frame carries, or refs in the appended frames would not resolve.
func ResumeWriter(w io.Writer, offset int64, devices, strings []string) *Writer {
	base := Base{Devices: devices, Strings: strings}
	lw := &Writer{w: w, off: offset, tab: base.DeviceTable(), stab: base.StringTable(), segBytes: DefaultSegmentBytes}
	lw.enc.SetDeviceTable(lw.tab)
	lw.enc.SetStringTable(lw.stab)
	return lw
}

// SetSegmentBytes overrides the segment-rotation threshold (<= 0 disables
// rotation). A resumed run must use the original run's value — restored
// via RestoreSegmentState — or rotation offsets, and therefore log bytes,
// would differ from the uninterrupted run.
func (w *Writer) SetSegmentBytes(n int64) { w.segBytes = n }

// RecordSegmentState copies the writer's segmentation state into a
// checkpoint, so a resumed writer re-triggers rotations at the exact
// offsets the uninterrupted run would have used.
func (w *Writer) RecordSegmentState(cp *Checkpoint) {
	cp.SegBytes, cp.SegStart, cp.SegOrdinal = w.segBytes, w.segStart, w.segOrdinal
}

// RestoreSegmentState reinstates checkpointed segmentation state on a
// resumed writer (the counterpart of RecordSegmentState).
func (w *Writer) RestoreSegmentState(cp *Checkpoint) {
	w.segBytes, w.segStart, w.segOrdinal = cp.SegBytes, cp.SegStart, cp.SegOrdinal
}

// ShouldRotate reports whether the current segment has exceeded the
// rotation threshold; the run loop checks it at each day barrier and
// calls StartSegment for the following day when it fires.
func (w *Writer) ShouldRotate() bool {
	return w.segBytes > 0 && w.off-w.segStart >= w.segBytes
}

// StartSegment writes a segment index frame: the next segment's first
// day plus an encoded reduced checkpoint (the store snapshot, the
// ledger's balances and cumulative stats as of the end of the previous
// day) that lets a seeking replay start here instead of at the base
// snapshot.
func (w *Writer) StartSegment(firstDay dates.Date, checkpoint []byte) error {
	w.enc.Segment(Segment{Ordinal: w.segOrdinal + 1, FirstDay: firstDay, Checkpoint: checkpoint})
	if err := w.flushScratch(); err != nil {
		return err
	}
	w.segOrdinal++
	w.segStart = w.off
	return nil
}

// DeviceTable returns the writer's device-ref table; engine encoders
// feeding AppendFrames share it via Encoder.SetDeviceTable.
func (w *Writer) DeviceTable() map[string]uint32 { return w.tab }

// StringTable returns the writer's string-ref table; engine encoders
// feeding AppendFrames share it via Encoder.SetStringTable.
func (w *Writer) StringTable() map[string]uint32 { return w.stab }

// Offset returns the total log bytes written so far.
func (w *Writer) Offset() int64 { return w.off }

// Err returns the writer's sticky failure, if any. After the first
// failed write — a torn write, a full disk — the log's tail is suspect,
// so the writer refuses every subsequent write with the same error
// rather than appending more frames after the damage. The on-disk
// prefix up to the last flushed day barrier stays exactly as valid as
// it was; Recover salvages the tail.
func (w *Writer) Err() error { return w.err }

func (w *Writer) writeRaw(b []byte) error {
	if w.err != nil {
		return w.err
	}
	n, err := w.w.Write(b)
	w.off += int64(n)
	if w.metrics != nil {
		w.metrics.Bytes.Add(int64(n))
	}
	if err != nil {
		w.err = fmt.Errorf("stream: writing run log: %w", err)
		return w.err
	}
	return nil
}

func (w *Writer) flushScratch() error {
	err := w.writeRaw(w.enc.Bytes())
	if w.metrics != nil {
		w.metrics.FrameWrites.Add(int64(w.enc.Records()))
	}
	w.enc.Reset()
	return err
}

// AppendFrames writes pre-encoded frames (a per-unit encoder's buffer)
// verbatim.
func (w *Writer) AppendFrames(frames []byte) error {
	return w.writeRaw(frames)
}

// EventBatch frames a day's worth of record-mode encoder buffers (see
// Encoder.SetRecordMode) as one event-batch frame: the records stream
// out in the given order and the CRC is computed incrementally over the
// concatenation, so hashing and framing are paid once per day instead of
// once per event. Empty buffers are skipped; a call with no bytes writes
// nothing. Batches beyond the frame-size bound split at buffer
// boundaries (a single buffer must fit one frame).
func (w *Writer) EventBatch(bufs ...[]byte) error {
	for start := 0; start < len(bufs); {
		end := start
		var n int64
		for end < len(bufs) {
			bl := int64(len(bufs[end]))
			if bl > maxFramePayload {
				return fmt.Errorf("%w: single unit buffer of %d bytes", ErrFrame, bl)
			}
			if n+bl > maxFramePayload {
				break
			}
			n += bl
			end++
		}
		if err := w.writeBatchFrame(bufs[start:end], n); err != nil {
			return err
		}
		start = end
	}
	return nil
}

func (w *Writer) writeBatchFrame(bufs [][]byte, total int64) error {
	if total == 0 {
		return nil
	}
	var hdr [binenc.FrameHeaderLen]byte
	if err := w.writeRaw(binenc.AppendFrameHeader(hdr[:0], uint8(KindEventBatch), uint32(total))); err != nil {
		return err
	}
	var crc uint32
	var coalesced int64
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		coalesced++
		crc = binenc.UpdateCRC(crc, b)
		if err := w.writeRaw(b); err != nil {
			return err
		}
	}
	if w.metrics != nil {
		w.metrics.BatchFrames.Inc()
		w.metrics.BatchBuffers.Add(coalesced)
	}
	var tail [binenc.FrameTrailerLen]byte
	return w.writeRaw(binenc.AppendFrameTrailer(tail[:0], crc))
}

// DayStart writes a day-start marker.
func (w *Writer) DayStart(day dates.Date) error {
	w.enc.DayStart(day)
	return w.flushScratch()
}

// Event writes one event frame: the engine's barrier-side events
// (enforcement actions, charts, the day-end line) and runlog tooling.
func (w *Writer) Event(ev *Event) error {
	if err := w.enc.Event(ev); err != nil {
		w.enc.Reset()
		return err
	}
	return w.flushScratch()
}

// Flush forwards to the underlying writer's Flush when it has one (e.g. a
// bufio.Writer); the run loop calls it at each day barrier so tail
// consumers observe whole days.
func (w *Writer) Flush() error {
	if f, ok := w.w.(interface{ Flush() error }); ok {
		var t0 time.Time
		if w.metrics != nil {
			t0 = time.Now()
		}
		if err := f.Flush(); err != nil {
			return fmt.Errorf("stream: flushing run log: %w", err)
		}
		if w.metrics != nil {
			w.metrics.Flushes.Inc()
			w.metrics.FlushSeconds.ObserveSince(t0)
		}
	}
	return nil
}
