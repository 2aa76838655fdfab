package binenc

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

const testMax = 1 << 10

// testFrames returns a stream of frames with payloads of assorted lengths
// (empty, one byte, up to the bound) and the offset of each frame, plus
// one more offset for the stream end.
func testFrames() (data []byte, payloads [][]byte, offs []int64) {
	for i, n := range []int{0, 1, 7, 200, testMax} {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(31*i + 7*j)
		}
		offs = append(offs, int64(len(data)))
		data = AppendFrame(data, uint8(i+1), p)
		payloads = append(payloads, p)
	}
	return data, payloads, append(offs, int64(len(data)))
}

// outcome names a scan result, so the byte and ReaderAt forms can be
// compared and the torn-tail contract stated per case.
func outcome(err error) string {
	switch {
	case err == nil:
		return "frame"
	case err == io.EOF:
		return "end"
	case errors.Is(err, ErrIncomplete):
		return "incomplete"
	case errors.Is(err, ErrOversize):
		return "oversize"
	case errors.Is(err, ErrCRC):
		return "crc"
	}
	return "error: " + err.Error()
}

// scan reads the frame at off with both ScanFrame and FrameReader and
// fails unless they agree.
func scan(t testing.TB, b []byte, off int64) (Frame, string) {
	t.Helper()
	f, err := ScanFrame(b[off:], testMax)
	fr := NewFrameReader(bytes.NewReader(b), testMax)
	g, gerr := fr.ReadAt(off)
	if outcome(err) != outcome(gerr) || f.Kind != g.Kind || f.Len != g.Len || !bytes.Equal(f.Payload, g.Payload) {
		t.Fatalf("at %d of %d: ScanFrame = (%+v, %v), ReadAt = (%+v, %v)", off, len(b), f, err, g, gerr)
	}
	if (err == nil) != (f.Payload != nil) {
		t.Fatalf("at %d: payload %v with outcome %s", off, f.Payload, outcome(err))
	}
	return f, outcome(err)
}

// countingAt records the reads made through it.
type countingAt struct {
	r     io.ReaderAt
	reads []int
}

func (c *countingAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads = append(c.reads, len(p))
	return c.r.ReadAt(p, off)
}

// TestFrameTornTail pins the contract every consumer of the frame codec
// builds its torn-tail handling on.
func TestFrameTornTail(t *testing.T) {
	data, payloads, offs := testFrames()
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"writers agree", func(t *testing.T) {
			for i, p := range payloads {
				var e Enc
				s := e.BeginFrame(uint8(i + 1))
				e.buf = append(e.buf, p...)
				e.EndFrame(s)
				pieces := AppendFrameHeader(nil, uint8(i+1), uint32(len(p)))
				crc := UpdateCRC(0, p[:len(p)/2])
				pieces = append(pieces, p...)
				pieces = AppendFrameTrailer(pieces, UpdateCRC(crc, p[len(p)/2:]))
				want := data[offs[i]:offs[i+1]]
				if !bytes.Equal(e.Bytes(), want) || !bytes.Equal(pieces, want) {
					t.Fatalf("frame %d: writers disagree", i)
				}
			}
		}},
		{"a cut at any byte leaves earlier frames intact, then incomplete", func(t *testing.T) {
			for cut := 0; cut <= len(data); cut++ {
				b := data[:cut]
				var off int64
				for i := 0; ; i++ {
					f, got := scan(t, b, off)
					if i == len(payloads) || offs[i+1] > int64(cut) {
						want := "incomplete"
						if offs[i] == int64(cut) {
							want = "end"
						}
						if got != want {
							t.Fatalf("cut %d, frame %d: %s, want %s", cut, i, got, want)
						}
						break
					}
					if got != "frame" || f.Kind != uint8(i+1) || !bytes.Equal(f.Payload, payloads[i]) {
						t.Fatalf("cut %d, frame %d: %s %+v, want it intact", cut, i, got, f)
					}
					off += f.Size()
				}
			}
		}},
		{"a flipped byte never yields a payload", func(t *testing.T) {
			for i := range payloads {
				// The CRC does not cover the kind byte, so flips start
				// after it; consumers reject kinds they do not expect.
				for pos := offs[i] + 1; pos < offs[i+1]; pos++ {
					for _, mask := range []byte{0x01, 0x80, 0xff} {
						b := bytes.Clone(data)
						b[pos] ^= mask
						if _, got := scan(t, b, offs[i]); got != "crc" && got != "oversize" && got != "incomplete" {
							t.Fatalf("frame %d, byte %d ^ %#x: %s", i, pos, mask, got)
						}
					}
				}
			}
		}},
		{"a length over the bound is rejected before any read", func(t *testing.T) {
			hdr := AppendFrameHeader(nil, 9, testMax+1)
			if _, err := ScanFrame(hdr, testMax); !errors.Is(err, ErrOversize) {
				t.Fatalf("ScanFrame of an oversize header: %v", err)
			}
			for _, peek := range []bool{false, true} {
				c := &countingAt{r: bytes.NewReader(hdr)}
				fr := NewFrameReader(c, testMax)
				read := fr.ReadAt
				if peek {
					read = fr.PeekAt
				}
				f, err := read(0)
				if !errors.Is(err, ErrOversize) || f.Kind != 9 || f.Len != testMax+1 {
					t.Fatalf("peek=%v: (%+v, %v), want oversize", peek, f, err)
				}
				if len(c.reads) != 1 || c.reads[0] != FrameHeaderLen || cap(fr.buf) != 0 {
					t.Fatalf("peek=%v: reads %v, buffer %d, want the header only", peek, c.reads, cap(fr.buf))
				}
			}
		}},
		{"a garbage length costs memory only for the bytes present", func(t *testing.T) {
			b := append(AppendFrameHeader(nil, 9, 1<<30), make([]byte, 100)...)
			fr := NewFrameReader(bytes.NewReader(b), 1<<30)
			if _, err := fr.ReadAt(0); !errors.Is(err, ErrIncomplete) || cap(fr.buf) > 64<<10 {
				t.Fatalf("ReadAt = %v with a %d-byte buffer, want incomplete within 64 KiB", err, cap(fr.buf))
			}
		}},
		{"peek reports complete frames without reading payloads", func(t *testing.T) {
			for i := range payloads {
				c := &countingAt{r: bytes.NewReader(data)}
				fr := NewFrameReader(c, testMax)
				f, err := fr.PeekAt(offs[i])
				if err != nil || f.Kind != uint8(i+1) || offs[i]+f.Size() != offs[i+1] || f.Payload != nil {
					t.Fatalf("frame %d: (%+v, %v)", i, f, err)
				}
				if len(c.reads) != 2 || c.reads[0] != FrameHeaderLen || c.reads[1] != FrameTrailerLen {
					t.Fatalf("frame %d: reads %v, want header and trailer", i, c.reads)
				}
				fr = NewFrameReader(bytes.NewReader(data[:offs[i+1]-1]), testMax)
				if _, err := fr.PeekAt(offs[i]); !errors.Is(err, ErrIncomplete) {
					t.Fatalf("frame %d missing its last byte: %v, want incomplete", i, err)
				}
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, tc.run)
	}
}

// FuzzFrameScan throws arbitrary bytes at both scanner forms: they must
// agree, never panic, and accept only frames that re-encode to exactly
// the bytes they were read from.
func FuzzFrameScan(f *testing.F) {
	data, _, offs := testFrames()
	f.Add(data, uint16(0))
	f.Add(data, uint16(offs[2]))
	f.Add(data[:offs[3]-2], uint16(offs[2]))
	f.Add([]byte{}, uint16(0))
	f.Add(AppendFrameHeader(nil, 6, 0xffffffff), uint16(0))
	f.Fuzz(func(t *testing.T, b []byte, at uint16) {
		off := int64(at)
		if off > int64(len(b)) {
			off = int64(len(b))
		}
		fr, got := scan(t, b, off)
		if got == "frame" && !bytes.Equal(AppendFrame(nil, fr.Kind, fr.Payload), b[off:off+fr.Size()]) {
			t.Fatalf("accepted frame at %d does not re-encode to its bytes", off)
		}
	})
}
