package stream

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dates"
	"repro/internal/mediator"
	"repro/internal/playstore"
)

// FuzzEventCodecRoundTrip asserts the canonical-codec property on
// arbitrary field values: encode→decode→encode is byte-identical for
// every event kind, including NaN float payloads, empty strings,
// pathological counts, and both device encodings (interned table ref and
// inline fallback).
func FuzzEventCodecRoundTrip(f *testing.F) {
	f.Add(uint8(3), int64(41), "com.pkg", "dev-1", "offer-1", "worker-1", "chart", uint64(5), uint64(7), uint64(11), uint8(2), true, false, math.Pi, 4.99, 1.25, 0.25, 0.5, uint64(3), true)
	f.Add(uint8(12), int64(0), "", "", "", "", "", uint64(0), uint64(0), uint64(0), uint8(0), false, true, math.Inf(1), math.NaN(), -0.0, 1e-300, -1e300, uint64(0), false)
	f.Add(uint8(15), int64(-9), "p", "d", "o", "w", "c", uint64(1)<<40, uint64(1)<<50, uint64(9), uint8(255), true, true, 0.0, 0.0, 0.0, 0.0, 0.0, uint64(2), true)
	f.Fuzz(func(t *testing.T, kind uint8, day int64, pkg, device, offer, worker, chart string,
		n, dau, seconds uint64, postEvent uint8, certified, batch bool,
		f1, f2, f3, f4, f5 float64, listLen uint64, useTable bool) {
		// Optionally intern the fuzzed device/worker strings and the
		// pkg/offer/account strings, exercising both table-ref paths;
		// otherwise everything goes inline.
		var table, strTable []string
		var tab, stab map[string]uint32
		if useTable {
			table = []string{device, worker, "other-device"}
			tab = Base{Devices: table}.DeviceTable()
			strTable = []string{pkg, offer, "other-string"}
			stab = Base{Strings: strTable}.StringTable()
		}
		kinds := []Kind{KindDayStart, KindOrganic, KindClick, KindInstall, KindInstallBatch,
			KindPostback, KindCertifyBatch, KindSession, KindPurchase, KindSettle,
			KindEnforce, KindChart, KindDayEnd}
		ev := Event{
			Kind:      kinds[int(kind)%len(kinds)],
			Day:       dates.Date(day),
			Pkg:       pkg,
			Device:    device,
			Offer:     offer,
			Worker:    worker,
			Chart:     chart,
			N:         int64(n),
			DAU:       int64(dau),
			Seconds:   int64(seconds),
			PostEvent: postEvent,
			Certified: certified,
			Batch:     batch,
			Fraud:     f1,
			USD:       f2,
			Gross:     f3,
			AffCut:    f4,
			UserPayout: math.Float64frombits(
				math.Float64bits(f5)), // arbitrary bits, kept verbatim
			DevAcct:      pkg,
			IIPAcct:      offer,
			AffAcct:      device,
			UserAcct:     worker,
			CumOrganic:   int64(n),
			CumIncent:    int64(dau),
			CumCertified: int64(seconds),
			CumRevenue:   f2,
		}
		for i := uint64(0); i < listLen%8; i++ {
			ev.Devices = append(ev.Devices, device)
			ev.Entries = append(ev.Entries, playstore.ChartEntry{Rank: int(i) + 1, Package: pkg, Score: f3})
		}
		if ev.Kind == KindInstallBatch {
			ev.N = int64(len(ev.Devices))
		}

		var enc Encoder
		enc.SetDeviceTable(tab)
		enc.SetStringTable(stab)
		if err := enc.Event(&ev); err != nil {
			t.Fatalf("encode: %v", err)
		}
		first := append([]byte(nil), enc.Bytes()...)

		fr, err := binenc.ScanFrame(first, maxFramePayload)
		if err != nil || fr.Size() != int64(len(first)) {
			t.Fatalf("frame not self-delimiting: size=%d len=%d err=%v", fr.Size(), len(first), err)
		}
		var got Event
		if err := decodePayload(Kind(fr.Kind), fr.Payload, &got, table, strTable); err != nil {
			t.Fatalf("decode: %v", err)
		}
		var enc2 Encoder
		enc2.SetDeviceTable(tab)
		enc2.SetStringTable(stab)
		if err := enc2.Event(&got); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc2.Bytes(), first) {
			t.Fatalf("encode→decode→encode not byte-identical for %s\n first: %x\nsecond: %x", ev.Kind, first, enc2.Bytes())
		}
	})
}

// FuzzFrameDecodeRobustness throws arbitrary bytes at the frame parser:
// it must never panic, and whatever it accepts must satisfy the CRC.
func FuzzFrameDecodeRobustness(f *testing.F) {
	var enc Encoder
	encode(f, &enc, Event{Kind: KindInstall, Pkg: "com.x", Device: "d", Fraud: 0.5})
	f.Add(enc.Bytes())
	f.Add([]byte{})
	f.Add([]byte{6, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := binenc.ScanFrame(data, maxFramePayload)
		if err != nil {
			return
		}
		var ev Event
		_ = decodePayload(Kind(fr.Kind), fr.Payload, &ev, nil, nil)
	})
}

// FuzzBatchRecordRoundTrip asserts the canonical-codec property on the v3
// record encoding: record-mode encode → parseRecord → decodePayload →
// record-mode re-encode is byte-identical, for short records and for
// payloads past the 128-byte uvarint-length boundary (which exercises the
// payload-shift path in Encoder.end).
func FuzzBatchRecordRoundTrip(f *testing.F) {
	f.Add(int64(3), "com.pkg", "dev-1", 0.25, uint64(2))
	f.Add(int64(0), "", "", math.NaN(), uint64(0))
	f.Add(int64(-5), "com.very.long.package.name.for.padding", "device-with-a-long-name", 1e300, uint64(40))
	f.Fuzz(func(t *testing.T, day int64, pkg, device string, fraud float64, listLen uint64) {
		ev := Event{Kind: KindInstallBatch, Day: dates.Date(day), Pkg: pkg, Fraud: fraud}
		for i := uint64(0); i < listLen%64; i++ {
			ev.Devices = append(ev.Devices, device)
		}
		ev.N = int64(len(ev.Devices))

		var enc Encoder
		enc.SetRecordMode(true)
		if err := enc.Event(&ev); err != nil {
			t.Fatalf("encode: %v", err)
		}
		// A short record after a potentially long one checks that the
		// shift in Encoder.end did not corrupt the running buffer.
		encode(t, &enc, Event{Kind: KindInstall, Pkg: pkg, Device: device, Fraud: fraud})
		first := append([]byte(nil), enc.Bytes()...)

		var off int
		var evs []Event
		for off < len(first) {
			k, payload, next, err := parseRecord(first, off)
			if err != nil {
				t.Fatalf("parseRecord at %d: %v", off, err)
			}
			var got Event
			if err := decodePayload(k, payload, &got, nil, nil); err != nil {
				t.Fatalf("decode %s: %v", k, err)
			}
			evs = append(evs, got)
			off = next
		}
		if len(evs) != 2 {
			t.Fatalf("parsed %d records, want 2", len(evs))
		}
		var enc2 Encoder
		enc2.SetRecordMode(true)
		for i := range evs {
			if err := enc2.Event(&evs[i]); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		if !bytes.Equal(enc2.Bytes(), first) {
			t.Fatalf("record encode→decode→encode not byte-identical\n first: %x\nsecond: %x", first, enc2.Bytes())
		}
	})
}

// FuzzSegmentCodecRoundTrip asserts the canonical-codec property on v3
// segment index frames, and that truncated or corrupted segment frames
// are rejected rather than misread. One seed is a real segment frame's
// balances-only checkpoint.
func FuzzSegmentCodecRoundTrip(f *testing.F) {
	data, _ := settledLog(f, (*mediator.Ledger).EncodeBalances)
	idx, err := ScanIndex(bytes.NewReader(data))
	if err != nil {
		f.Fatal(err)
	}
	cp, err := idx.SegmentCheckpoint(bytes.NewReader(data), 1)
	if err != nil {
		f.Fatal(err)
	}
	seg := idx.Segments[1]
	f.Add(uint64(seg.Ordinal), int64(seg.FirstDay), cp.Encode())
	f.Add(uint64(1), int64(12), []byte("checkpoint-blob"))
	f.Add(uint64(0), int64(0), []byte{})
	f.Add(uint64(1)<<40, int64(-3), bytes.Repeat([]byte{0xAB}, 300))
	f.Fuzz(func(t *testing.T, ordinal uint64, firstDay int64, cp []byte) {
		seg := Segment{Ordinal: int64(ordinal), FirstDay: dates.Date(firstDay), Checkpoint: cp}
		var enc Encoder
		enc.Segment(seg)
		first := append([]byte(nil), enc.Bytes()...)

		fr, err := binenc.ScanFrame(first, maxFramePayload)
		if err != nil || Kind(fr.Kind) != KindSegment || fr.Size() != int64(len(first)) {
			t.Fatalf("segment frame not self-delimiting: k=%s size=%d len=%d err=%v", Kind(fr.Kind), fr.Size(), len(first), err)
		}
		got, err := decodeSegment(fr.Payload)
		if err != nil {
			t.Fatalf("decodeSegment: %v", err)
		}
		var enc2 Encoder
		enc2.Segment(got)
		if !bytes.Equal(enc2.Bytes(), first) {
			t.Fatalf("segment encode→decode→encode not byte-identical\n first: %x\nsecond: %x", first, enc2.Bytes())
		}

		// Every truncation must read as incomplete, never as a frame.
		for _, cut := range []int{1, len(first) / 2, len(first) - 1} {
			if cut >= len(first) {
				continue
			}
			if _, err := binenc.ScanFrame(first[:cut], maxFramePayload); err == nil {
				t.Fatalf("truncated segment frame (cut=%d) parsed as complete", cut)
			}
		}
		// A corrupted payload byte must fail the CRC.
		if len(fr.Payload) > 0 {
			bad := append([]byte(nil), first...)
			bad[5] ^= 0x40 // first payload byte (after kind + u32 length)
			if _, err := binenc.ScanFrame(bad, maxFramePayload); err == nil {
				t.Fatal("corrupted segment frame passed CRC")
			}
		}
	})
}

// FuzzLogStreamRobustness appends arbitrary bytes after a valid preamble
// and drives every consumer — Reader, Tail, ScanIndex — to exhaustion.
// None may panic; errors and clean stops are both acceptable.
func FuzzLogStreamRobustness(f *testing.F) {
	var pre bytes.Buffer
	if _, err := NewWriter(&pre, testHeader(), testBase()); err != nil {
		f.Fatal(err)
	}
	var enc Encoder
	enc.SetRecordMode(true)
	enc.DayStart(2)
	encode(f, &enc, Event{Kind: KindInstall, Pkg: "com.x", Device: "d1", Fraud: 0.5})
	f.Add(pre.Bytes(), []byte{})
	f.Add(pre.Bytes(), enc.Bytes())
	f.Add(pre.Bytes(), []byte{byte(KindEventBatch), 4, 0, 0, 0, 1, 2, 3, 4})
	f.Add(pre.Bytes(), []byte{byte(KindSegment), 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, preamble, rest []byte) {
		data := append(append([]byte(nil), preamble...), rest...)
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			var ev Event
			for r.Next(&ev) == nil {
			}
		}
		tail := NewTail(bytes.NewReader(data))
		var ev Event
		for {
			ok, err := tail.Next(&ev)
			if err != nil || !ok {
				break
			}
		}
		if idx, err := ScanIndex(bytes.NewReader(data)); err == nil {
			for _, d := range idx.Days {
				_ = idx.Segment(d.Day)
			}
			_, _ = idx.LastDay()
		}
		_, _, _ = Histogram(bytes.NewReader(data))
	})
}
