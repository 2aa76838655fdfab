package binenc

import (
	"bytes"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEnc(64)
	e.U8(7)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.Uvarint(300)
	e.Varint(-12345)
	e.F64(math.Pi)
	e.F64(math.Float64frombits(0x7ff8000000000001)) // NaN payload survives
	e.Bool(true)
	e.Bool(false)
	e.Str("hello")
	e.Str("")
	e.Blob([]byte{1, 2, 3})

	d := NewDec(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -12345 {
		t.Errorf("Varint = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := math.Float64bits(d.F64()); got != 0x7ff8000000000001 {
		t.Errorf("NaN bits = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bools did not round-trip")
	}
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	if got := d.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestDecStickyErrors(t *testing.T) {
	d := NewDec([]byte{1})
	d.U64() // too short
	if d.Err() == nil {
		t.Fatal("short read not detected")
	}
	if d.U8() != 0 || d.Str() != "" || d.Uvarint() != 0 {
		t.Error("reads after failure must return zero values")
	}
	if d.Done() == nil {
		t.Error("Done must report the sticky error")
	}
}

func TestDecRejectsOversizedLength(t *testing.T) {
	e := NewEnc(8)
	e.Uvarint(1 << 40) // declared string length far beyond the buffer
	d := NewDec(e.Bytes())
	if d.Str() != "" || d.Err() == nil {
		t.Error("oversized length must fail, not allocate")
	}
}

func TestDecRejectsNonCanonicalBool(t *testing.T) {
	d := NewDec([]byte{2})
	d.Bool()
	if d.Err() == nil {
		t.Error("bool byte 2 must be rejected")
	}
}

func TestDoneDetectsTrailingBytes(t *testing.T) {
	d := NewDec([]byte{0, 0})
	d.U8()
	if d.Done() == nil {
		t.Error("trailing byte not detected")
	}
}

// TestEncodedLengths: the size helpers exact-size buffers with agree
// with what the encoder appends, at every varint width boundary.
func TestEncodedLengths(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			e := NewEnc(0)
			e.Uvarint(v)
			if got := UvarintLen(v); got != e.Len() {
				t.Errorf("UvarintLen(%d) = %d, encoder appends %d", v, got, e.Len())
			}
			for _, sv := range []int64{int64(v), -int64(v)} {
				e.Reset()
				e.Varint(sv)
				if got := VarintLen(sv); got != e.Len() {
					t.Errorf("VarintLen(%d) = %d, encoder appends %d", sv, got, e.Len())
				}
			}
		}
	}
	for _, s := range []string{"", "a", string(make([]byte, 127)), string(make([]byte, 128)), string(make([]byte, 1<<14))} {
		e := NewEnc(0)
		e.Str(s)
		if got := StrLen(s); got != e.Len() {
			t.Errorf("StrLen(%d bytes) = %d, encoder appends %d", len(s), got, e.Len())
		}
	}
}
