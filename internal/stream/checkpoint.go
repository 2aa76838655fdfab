package stream

import (
	"errors"
	"fmt"
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
	Installs  []Install
}

// Encode serializes the checkpoint with a trailing CRC over the payload.
func (c *Checkpoint) Encode() []byte {
	enc := binenc.NewEnc(1 << 16)
	for _, b := range []byte(CheckpointMagic) {
		enc.U8(b)
	}
	enc.U8(checkpointVersion)
	body := binenc.NewEnc(1 << 16)
	body.Varint(int64(c.Day))
	body.Varint(c.Days)
	body.Varint(c.OrganicInstalls)
	body.Varint(c.IncentivizedInstalls)
	body.Varint(c.CertifiedCompletions)
	body.F64(c.RevenueUSD)
	body.Varint(c.LogOffset)
	body.Varint(c.SegBytes)
	body.Varint(c.SegStart)
	body.Varint(c.SegOrdinal)
	body.Blob(c.Store)
	body.Blob(c.Ledger)
	body.Blob(c.Mediator)
	encodeBlobs(body, c.Platforms)
	encodeBlobs(body, c.Streams)
	body.Uvarint(uint64(len(c.Installs)))
	for _, in := range c.Installs {
		body.Str(in.Device)
		body.Str(in.App)
		body.Varint(int64(in.Day))
	}
	enc.Blob(body.Bytes())
	enc.U32(binenc.CRC(body.Bytes()))
	return enc.Bytes()
}

func encodeBlobs(enc *binenc.Enc, blobs []NamedBlob) {
	enc.Uvarint(uint64(len(blobs)))
	for _, b := range blobs {
		enc.Str(b.Name)
		enc.Blob(b.Data)
	}
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
		out = append(out, NamedBlob{Name: dec.Str(), Data: dec.Blob()})
	}
	return out
}

// DecodeCheckpoint parses Encode output, verifying the CRC.
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
	body := dec.Blob()
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
		Store:                bd.Blob(),
		Ledger:               bd.Blob(),
		Mediator:             bd.Blob(),
	}
	c.Platforms = decodeBlobs(bd)
	c.Streams = decodeBlobs(bd)
	nInstalls := bd.Uvarint()
	if bd.Err() == nil && nInstalls > uint64(bd.Remaining()) {
		return nil, fmt.Errorf("%w: install count %d", ErrBadCheckpoint, nInstalls)
	}
	c.Installs = make([]Install, 0, nInstalls)
	for i := uint64(0); i < nInstalls && bd.Err() == nil; i++ {
		c.Installs = append(c.Installs, Install{
			Device: bd.Str(),
			App:    bd.Str(),
			Day:    dates.Date(bd.Varint()),
		})
	}
	if err := bd.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
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

// WriteCheckpointFile atomically writes the checkpoint to path (temp file
// plus rename), so a crash mid-write never leaves a truncated checkpoint
// behind.
func WriteCheckpointFile(path string, c *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("stream: writing checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(c.Encode()); err != nil {
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
	return nil
}

// ReadCheckpointFile reads and decodes a checkpoint file.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("stream: reading checkpoint: %w", err)
	}
	return DecodeCheckpoint(data)
}
