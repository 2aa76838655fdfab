// Package binenc provides the little-endian binary encoding primitives
// shared by the run-log event codec (internal/stream) and the state
// snapshot codecs (internal/playstore, internal/mediator, internal/iip).
// Encodings are canonical — a given value has exactly one byte form — so
// encode→decode→encode round-trips are byte-identical, which is what the
// run log's determinism and resume guarantees are asserted against.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Decode errors.
var (
	ErrShort    = errors.New("binenc: buffer too short")
	ErrOverflow = errors.New("binenc: varint overflows")
	ErrTooLong  = errors.New("binenc: declared length exceeds remaining input")
)

// Enc is an append-only encoder. The zero value is ready to use; Bytes
// returns everything appended so far. Enc never fails: every Go value the
// writers hand it has exactly one encoding.
type Enc struct {
	buf []byte
}

// NewEnc returns an encoder with capacity preallocated.
func NewEnc(capacity int) *Enc {
	return &Enc{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer (not a copy).
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns how many bytes have been appended.
func (e *Enc) Len() int { return len(e.buf) }

// Reset empties the encoder, keeping its capacity.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Grow reserves capacity for at least n more bytes without changing the
// length, so a known-size burst of appends never reallocates.
func (e *Enc) Grow(n int) {
	if cap(e.buf)-len(e.buf) >= n {
		return
	}
	grown := make([]byte, len(e.buf), len(e.buf)+n)
	copy(grown, e.buf)
	e.buf = grown
}

// Pad appends n zero bytes; frame writers use it to open a gap that a
// backpatch (e.g. a shifted varint length) then fills.
func (e *Enc) Pad(n int) {
	for i := 0; i < n; i++ {
		e.buf = append(e.buf, 0)
	}
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a fixed-width little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// PutU32 writes a fixed-width little-endian uint32 into b[0:4]; frame
// writers use it to backpatch length placeholders.
func PutU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zig-zag signed varint.
func (e *Enc) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// F64 appends the IEEE-754 bit pattern of v (bit-exact round trip).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends 1 or 0.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// UvarintLen returns how many bytes Uvarint(v) appends.
func UvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// VarintLen returns how many bytes Varint(v) appends.
func VarintLen(v int64) int { return UvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// StrLen returns how many bytes Str(s) (or Blob of len(s) bytes) appends;
// encoders use these sizes to allocate an exactly sized buffer up front.
func StrLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// Dec decodes a buffer produced by Enc. It is error-sticky: after the
// first failure every read returns the zero value and Err reports the
// failure, so decoders can run a straight-line field sequence and check
// once at the end.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Err returns the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns how many bytes have not been consumed.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Done returns an error unless the buffer was consumed exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("binenc: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Fail marks the decoder as failed (if it is not already); callers use it
// when a decoded value is structurally invalid (e.g. an element count the
// remaining input cannot possibly hold).
func (d *Dec) Fail(err error) { d.fail(err) }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail(ErrShort)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a fixed-width little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrShort)
		} else {
			d.fail(ErrOverflow)
		}
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrShort)
		} else {
			d.fail(ErrOverflow)
		}
		return 0
	}
	d.off += n
	return v
}

// F64 reads an IEEE-754 bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a byte and rejects anything but 0 or 1, keeping the encoding
// canonical.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(errors.New("binenc: non-canonical bool"))
		return false
	}
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.BlobView()) }

// InternStr reads a length-prefixed string like Str, but returns the
// copy tab already holds for the same bytes, adding a new one otherwise:
// a decoder that meets the same value many times allocates it once.
func (d *Dec) InternStr(tab map[string]string) string {
	b := d.BlobView()
	if s, ok := tab[string(b)]; ok {
		return s
	}
	s := string(b)
	tab[s] = s
	return s
}

// BlobView reads a length-prefixed byte slice without copying it: the
// result aliases the decoder's input.
func (d *Dec) BlobView() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail(ErrTooLong)
		return nil
	}
	return d.take(int(n))
}

// Blob reads a length-prefixed byte slice (a copy).
func (d *Dec) Blob() []byte { return append([]byte(nil), d.BlobView()...) }
