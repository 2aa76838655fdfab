package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"os"
	"path/filepath"

	"repro/internal/binenc"
	"repro/internal/dates"
)

// CheckpointMagic opens every checkpoint file.
const CheckpointMagic = "IIRCKPT1"

// checkpointVersion guards the checkpoint wire format. Version 2 added
// the run-log segmentation state (SegBytes/SegStart/SegOrdinal), which a
// resumed writer needs to re-trigger segment rotations at the exact
// offsets of the uninterrupted run.
const checkpointVersion = 2

// ErrBadCheckpoint rejects corrupt checkpoint bytes.
var ErrBadCheckpoint = errors.New("stream: bad checkpoint")

// NamedBlob is a labelled opaque snapshot section (a platform's state, an
// engine stream's RNG position).
type NamedBlob struct {
	Name string
	Data []byte
}

// Install is one device-resolved install observation, mirrored from the
// simulator's install log so the checkpoint (and replay) can rebuild it.
type Install struct {
	Device string
	App    string
	Day    dates.Date
}

// Installs is a checkpoint's install history, held as a view instead of
// a copy: a count and a source that yields the records in order. A
// checkpoint the engine takes views the first n records of the run's
// append-only install log; a decoded checkpoint views the install section
// of its bytes, validated at decode. Either way the records stream
// straight from their source when the checkpoint is written or restored.
//
// A live view reads the log it was taken from, so it must be written or
// encoded while that log still holds those records: not concurrently with
// the run that appends to it, and not after the log is reset or closed.
// Encode (and DecodeCheckpoint) give a copy that lasts.
type Installs struct {
	n   int
	src iter.Seq2[Install, error]
}

// NewInstalls returns a view of the n records src yields. src must yield
// them in order and stop there; a source that fails yields one final
// non-nil error.
func NewInstalls(n int, src iter.Seq2[Install, error]) Installs {
	return Installs{n: n, src: src}
}

// Len returns the number of installs in the view.
func (s Installs) Len() int { return s.n }

// All ranges over the installs in order. A failing source ends the
// sequence with a non-nil error. The zero Installs is empty.
func (s Installs) All() iter.Seq2[Install, error] {
	if s.src == nil {
		return func(func(Install, error) bool) {}
	}
	return s.src
}

// decodedInstalls views n encoded install records. Each iteration interns
// its strings, so each distinct device and app string is allocated once.
func decodedInstalls(n int, raw []byte) Installs {
	return NewInstalls(n, func(yield func(Install, error) bool) {
		dec := binenc.NewDec(raw)
		tab := make(map[string]string)
		for i := 0; i < n; i++ {
			in := Install{Device: dec.InternStr(tab), App: dec.InternStr(tab), Day: dates.Date(dec.Varint())}
			if !yield(in, nil) {
				return
			}
		}
	})
}

// Checkpoint is everything a killed run needs to continue producing a
// byte-identical remaining event log: the last completed day, the
// cumulative run stats, the event-log offset to truncate/append at, the
// store/ledger/mediator snapshots, every platform's mutable state, the
// exact RNG position of every engine work-unit stream, and the install
// log accumulated so far.
type Checkpoint struct {
	Day                  dates.Date
	Days                 int64
	OrganicInstalls      int64
	IncentivizedInstalls int64
	CertifiedCompletions int64
	RevenueUSD           float64
	LogOffset            int64

	// Run-log segmentation state (see Writer.RecordSegmentState).
	SegBytes   int64
	SegStart   int64
	SegOrdinal int64

	Store    []byte
	Ledger   []byte
	Mediator []byte

	Platforms []NamedBlob // sorted by platform name
	Streams   []NamedBlob // engine streams in canonical unit order
	Installs  Installs
}

// checkpointChunk is the write granularity of WriteTo: the body goes to
// the writer in chunks this size (blobs of a chunk or more go directly).
const checkpointChunk = 1 << 16

// Encode is WriteTo into an exactly sized buffer. It returns nil if the
// install source fails, which only a spilled install log can; WriteTo
// reports that error.
func (c *Checkpoint) Encode() []byte {
	bodyLen, err := c.bodyLen()
	if err != nil {
		return nil
	}
	var b bytes.Buffer
	b.Grow(len(CheckpointMagic) + 1 + binenc.UvarintLen(uint64(bodyLen)) + bodyLen + 4)
	if _, err := c.write(&b, bodyLen); err != nil {
		return nil
	}
	return b.Bytes()
}

// WriteTo streams the checkpoint to w: the magic and version, the body as
// one length-prefixed blob, and a CRC-32C of the body. A size pass over
// the sections fixes the length prefix first, so nothing the size of the
// body is ever buffered.
func (c *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	bodyLen, err := c.bodyLen()
	if err != nil {
		return 0, err
	}
	return c.write(w, bodyLen)
}

// bodyLen is the size pass: the encoded size of the body, summed field by
// field. The install view is iterated once to size its records.
func (c *Checkpoint) bodyLen() (int, error) {
	n := 8 // RevenueUSD
	for _, v := range []int64{int64(c.Day), c.Days, c.OrganicInstalls, c.IncentivizedInstalls,
		c.CertifiedCompletions, c.LogOffset, c.SegBytes, c.SegStart, c.SegOrdinal} {
		n += binenc.VarintLen(v)
	}
	for _, b := range [][]byte{c.Store, c.Ledger, c.Mediator} {
		n += binenc.UvarintLen(uint64(len(b))) + len(b)
	}
	for _, blobs := range [][]NamedBlob{c.Platforms, c.Streams} {
		n += binenc.UvarintLen(uint64(len(blobs)))
		for _, b := range blobs {
			n += binenc.StrLen(b.Name) + binenc.UvarintLen(uint64(len(b.Data))) + len(b.Data)
		}
	}
	n += binenc.UvarintLen(uint64(c.Installs.n))
	for in, err := range c.Installs.All() {
		if err != nil {
			return 0, err
		}
		n += binenc.StrLen(in.Device) + binenc.StrLen(in.App) + binenc.VarintLen(int64(in.Day))
	}
	return n, nil
}

// write emits the checkpoint to w, bodyLen being bodyLen's result. The
// install view is iterated a second time; a source that yields other
// records than the size pass saw fails the write.
func (c *Checkpoint) write(w io.Writer, bodyLen int) (int64, error) {
	hdr := append([]byte(CheckpointMagic), checkpointVersion)
	k, err := w.Write(binary.AppendUvarint(hdr, uint64(bodyLen)))
	if err != nil {
		return int64(k), err
	}
	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, checkpointChunk)
	if err := c.body(bw); err != nil {
		return int64(k) + cw.n, err
	}
	err = bw.Flush()
	n := int64(k) + cw.n
	if err != nil {
		return n, err
	}
	if cw.n != int64(bodyLen) {
		return n, fmt.Errorf("stream: checkpoint body is %d bytes, sized at %d", cw.n, bodyLen)
	}
	k, err = w.Write(binary.LittleEndian.AppendUint32(nil, cw.crc))
	return n + int64(k), err
}

// body emits the checkpoint body through bw, in wire order.
func (c *Checkpoint) body(bw *bufio.Writer) error {
	buf := bw.AvailableBuffer()
	for _, v := range []int64{int64(c.Day), c.Days, c.OrganicInstalls, c.IncentivizedInstalls, c.CertifiedCompletions} {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.RevenueUSD))
	for _, v := range []int64{c.LogOffset, c.SegBytes, c.SegStart, c.SegOrdinal} {
		buf = binary.AppendVarint(buf, v)
	}
	bw.Write(buf)
	for _, b := range [][]byte{c.Store, c.Ledger, c.Mediator} {
		writeBlob(bw, b)
	}
	for _, blobs := range [][]NamedBlob{c.Platforms, c.Streams} {
		bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(blobs))))
		for _, b := range blobs {
			writeStr(bw, b.Name)
			writeBlob(bw, b.Data)
		}
	}
	bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), uint64(c.Installs.n)))
	// Records are assembled in rec, not in bw's free space, so one that
	// straddles a chunk boundary costs a copy instead of an allocation.
	n, rec := 0, make([]byte, 0, 256)
	for in, err := range c.Installs.All() {
		if err != nil {
			return err
		}
		rec = binary.AppendUvarint(rec[:0], uint64(len(in.Device)))
		rec = append(rec, in.Device...)
		rec = binary.AppendUvarint(rec, uint64(len(in.App)))
		rec = append(rec, in.App...)
		bw.Write(binary.AppendVarint(rec, int64(in.Day)))
		n++
	}
	if n != c.Installs.n {
		return fmt.Errorf("stream: checkpoint install source yielded %d records, want %d", n, c.Installs.n)
	}
	return nil
}

// writeBlob writes a length-prefixed byte slice.
func writeBlob(bw *bufio.Writer, p []byte) {
	bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(p))))
	bw.Write(p)
}

// writeStr writes a length-prefixed string.
func writeStr(bw *bufio.Writer, s string) {
	bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(s))))
	bw.WriteString(s)
}

// crcWriter passes writes through to w, counting the bytes written and
// keeping their CRC-32C running.
type crcWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	k, err := cw.w.Write(p)
	cw.n += int64(k)
	cw.crc = binenc.UpdateCRC(cw.crc, p[:k])
	return k, err
}

func decodeBlobs(dec *binenc.Dec) []NamedBlob {
	n := dec.Uvarint()
	if dec.Err() != nil {
		return nil
	}
	if n > uint64(dec.Remaining()) {
		dec.Fail(binenc.ErrTooLong)
		return nil
	}
	out := make([]NamedBlob, 0, n)
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		out = append(out, NamedBlob{Name: dec.Str(), Data: dec.BlobView()})
	}
	return out
}

// DecodeCheckpoint parses Encode output, verifying the CRC. No blob is
// copied: the blobs and the Installs view alias data, which the caller
// must not modify afterwards. The install section is validated here, in
// one pass, and left encoded until it is iterated.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	dec := binenc.NewDec(data)
	magic := make([]byte, len(CheckpointMagic))
	for i := range magic {
		magic[i] = dec.U8()
	}
	if dec.Err() != nil || string(magic) != CheckpointMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	if v := dec.U8(); dec.Err() == nil && v != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, v)
	}
	body := dec.BlobView()
	crc := dec.U32()
	if err := dec.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if binenc.CRC(body) != crc {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadCheckpoint)
	}
	bd := binenc.NewDec(body)
	c := &Checkpoint{
		Day:                  dates.Date(bd.Varint()),
		Days:                 bd.Varint(),
		OrganicInstalls:      bd.Varint(),
		IncentivizedInstalls: bd.Varint(),
		CertifiedCompletions: bd.Varint(),
		RevenueUSD:           bd.F64(),
		LogOffset:            bd.Varint(),
		SegBytes:             bd.Varint(),
		SegStart:             bd.Varint(),
		SegOrdinal:           bd.Varint(),
		Store:                bd.BlobView(),
		Ledger:               bd.BlobView(),
		Mediator:             bd.BlobView(),
	}
	c.Platforms = decodeBlobs(bd)
	c.Streams = decodeBlobs(bd)
	nInstalls := bd.Uvarint()
	if bd.Err() == nil && nInstalls > uint64(bd.Remaining()) {
		return nil, fmt.Errorf("%w: install count %d", ErrBadCheckpoint, nInstalls)
	}
	from := len(body) - bd.Remaining()
	for i := uint64(0); i < nInstalls && bd.Err() == nil; i++ {
		bd.BlobView()
		bd.BlobView()
		bd.Varint()
	}
	if err := bd.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	c.Installs = decodedInstalls(int(nInstalls), body[from:])
	return c, nil
}

// Stream returns the RNG state blob recorded for an engine stream label.
func (c *Checkpoint) Stream(label string) ([]byte, bool) {
	for _, b := range c.Streams {
		if b.Name == label {
			return b.Data, true
		}
	}
	return nil, false
}

// Platform returns the snapshot blob recorded for a platform name.
func (c *Checkpoint) Platform(name string) ([]byte, bool) {
	for _, b := range c.Platforms {
		if b.Name == name {
			return b.Data, true
		}
	}
	return nil, false
}

// WriteCheckpointFile atomically writes the checkpoint to path: it
// streams into a temp file, syncs it, renames it over path, and syncs the
// directory, so a crash never leaves a truncated checkpoint behind and a
// checkpoint that exists survives a power cut.
func WriteCheckpointFile(path string, c *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("stream: writing checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := c.WriteTo(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("stream: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("stream: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("stream: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("stream: installing checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("stream: syncing checkpoint directory: %w", err)
	}
	return nil
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadCheckpointFile reads and decodes a checkpoint file.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("stream: reading checkpoint: %w", err)
	}
	return DecodeCheckpoint(data)
}
