package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The frame is the unit of every durable byte stream in this repository —
// the run log, the install-log spill, and the coordinator journal:
//
//	[kind u8][payload length u32 LE][payload][CRC-32C(payload) u32 LE]
//
// The CRC covers the payload only, so consumers check that the kind is one
// they expect. This file is the only place that packs or parses that
// layout.
const (
	FrameHeaderLen  = 5
	FrameTrailerLen = 4
)

// Frame scan outcomes. Besides these, a scan at an offset where the input
// ends exactly returns io.EOF: nothing of a frame is there yet. Both io.EOF
// and ErrIncomplete are the torn-tail case, never corruption.
var (
	ErrIncomplete = errors.New("binenc: incomplete frame")
	ErrOversize   = errors.New("binenc: frame payload exceeds bound")
	ErrCRC        = errors.New("binenc: frame CRC mismatch")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CRC returns the CRC-32C of p.
func CRC(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// UpdateCRC extends a CRC-32C over p, for payloads written in pieces.
func UpdateCRC(crc uint32, p []byte) uint32 { return crc32.Update(crc, crcTable, p) }

// AppendFrameHeader appends the header of a frame of kind with an n-byte
// payload. A frame whose payload is written in pieces follows it with the
// pieces and then AppendFrameTrailer of their running UpdateCRC.
func AppendFrameHeader(dst []byte, kind uint8, n uint32) []byte {
	return binary.LittleEndian.AppendUint32(append(dst, kind), n)
}

// AppendFrameTrailer appends a frame's CRC trailer.
func AppendFrameTrailer(dst []byte, crc uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// AppendFrame appends a complete frame carrying payload.
func AppendFrame(dst []byte, kind uint8, payload []byte) []byte {
	dst = append(AppendFrameHeader(dst, kind, uint32(len(payload))), payload...)
	return AppendFrameTrailer(dst, CRC(payload))
}

// BeginFrame opens a frame of kind whose payload the caller appends next:
// it writes the header with a length placeholder and returns the payload
// start for EndFrame.
func (e *Enc) BeginFrame(kind uint8) int {
	e.buf = AppendFrameHeader(e.buf, kind, 0)
	return len(e.buf)
}

// EndFrame closes the frame whose payload began at start: it backpatches
// the length and appends the CRC trailer.
func (e *Enc) EndFrame(start int) {
	PutU32(e.buf[start-4:start], uint32(len(e.buf)-start))
	e.buf = AppendFrameTrailer(e.buf, CRC(e.buf[start:]))
}

// Frame is one scanned frame. Kind is set whenever the input holds at
// least the kind byte, Len once the whole header was read, and Payload
// only for a complete frame whose CRC matches.
type Frame struct {
	Kind    uint8
	Len     uint32
	Payload []byte
}

// Size returns the frame's byte length as its header declares it.
func (f Frame) Size() int64 { return FrameHeaderLen + int64(f.Len) + FrameTrailerLen }

func parseHeader(h []byte, limit uint32) (Frame, error) {
	f := Frame{Kind: h[0], Len: binary.LittleEndian.Uint32(h[1:])}
	if f.Len > limit {
		return f, fmt.Errorf("%w: payload of %d bytes", ErrOversize, f.Len)
	}
	return f, nil
}

// check verifies body (payload then CRC trailer) and sets Payload.
func (f *Frame) check(body []byte) error {
	p := body[:f.Len]
	if CRC(p) != binary.LittleEndian.Uint32(body[f.Len:]) {
		return ErrCRC
	}
	f.Payload = p
	return nil
}

// ScanFrame reads the frame at the start of b, whose payload may not
// exceed limit bytes. The payload aliases b.
func ScanFrame(b []byte, limit uint32) (Frame, error) {
	switch {
	case len(b) == 0:
		return Frame{}, io.EOF
	case len(b) < FrameHeaderLen:
		return Frame{Kind: b[0]}, ErrIncomplete
	}
	f, err := parseHeader(b, limit)
	if err != nil {
		return f, err
	}
	if int64(len(b)) < f.Size() {
		return f, ErrIncomplete
	}
	err = f.check(b[FrameHeaderLen:f.Size()])
	return f, err
}

// ReadFullAt fills p from r at off. It returns io.EOF when r holds no
// byte at off and ErrIncomplete when it holds some but not all of p.
func ReadFullAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	switch {
	case n == len(p):
		return nil
	case err != nil && err != io.EOF:
		return fmt.Errorf("binenc: reading %d bytes at offset %d: %w", len(p), off, err)
	case n == 0:
		return io.EOF
	}
	return ErrIncomplete
}

// FrameReader scans frames at absolute offsets of an io.ReaderAt. It
// reuses one buffer: a payload is valid until the next ReadAt.
type FrameReader struct {
	r     io.ReaderAt
	limit uint32
	buf   []byte
	// probe holds a header or trailer read apart from its payload. As a
	// field it costs no allocation per read, which a local array passed
	// to ReadAt would.
	probe [FrameHeaderLen]byte
}

// NewFrameReader scans frames of r whose payloads may not exceed limit bytes.
func NewFrameReader(r io.ReaderAt, limit uint32) FrameReader {
	return FrameReader{r: r, limit: limit}
}

// ReadAt reads and verifies the frame at off. A length over the bound is
// rejected after reading only the header. A frame more than twice the
// buffer's size is read in pieces that each at most double it, so a
// garbage length within the bound costs memory in proportion to the
// bytes actually present.
func (fr *FrameReader) ReadAt(off int64) (Frame, error) {
	f, err := fr.header(off)
	if err != nil {
		return f, err
	}
	n := int(f.Len) + FrameTrailerLen
	for got := 0; got < n; {
		end := n
		if end > cap(fr.buf) {
			end = min(n, max(2*cap(fr.buf), 64<<10))
			grown := make([]byte, end)
			copy(grown, fr.buf[:got])
			fr.buf = grown
		}
		if err := ReadFullAt(fr.r, fr.buf[got:end], off+FrameHeaderLen+int64(got)); err != nil {
			return f, incomplete(err)
		}
		got = end
	}
	err = f.check(fr.buf[:n])
	return f, err
}

// PeekAt returns the kind and length of the frame at off without reading
// its payload: it reads the header and probes the CRC trailer, so the
// frame is known to be complete, but its CRC is not checked.
func (fr *FrameReader) PeekAt(off int64) (Frame, error) {
	f, err := fr.header(off)
	if err != nil {
		return f, err
	}
	return f, incomplete(ReadFullAt(fr.r, fr.probe[:FrameTrailerLen], off+f.Size()-FrameTrailerLen))
}

func (fr *FrameReader) header(off int64) (Frame, error) {
	h := fr.probe[:]
	clear(h)
	if err := ReadFullAt(fr.r, h, off); err != nil {
		return Frame{Kind: h[0]}, err
	}
	return parseHeader(h, fr.limit)
}

// incomplete maps io.EOF past a frame's header to ErrIncomplete: the frame
// has started, so its end is missing, not absent.
func incomplete(err error) error {
	if err == io.EOF {
		return ErrIncomplete
	}
	return err
}
