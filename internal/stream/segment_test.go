package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dates"
	"repro/internal/mediator"
	"repro/internal/playstore"
)

// testHeader/testBase build the minimal preamble the format-level tests
// need (the snapshot blobs are opaque at this layer).
func testHeader() Header {
	return Header{Version: Version, Seed: 7, WindowStart: 1, WindowEnd: 9, MediatorName: "med", FeePerUser: 0.03}
}

func testBase() Base {
	return Base{Store: []byte("s"), Ledger: []byte("l"), Mediator: []byte("m"),
		Devices: []string{"d1", "d2"}, Strings: []string{"com.x", "offer-1"}}
}

// drainReader collects every event kind from a Reader.
func drainReader(t *testing.T, data []byte) []Event {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	for {
		var ev Event
		err := r.Next(&ev)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		ev.Devices = append([]string(nil), ev.Devices...)
		ev.Entries = nil
		out = append(out, ev)
	}
}

// TestEventBatchRoundTrip writes a day through the batched fast path
// (record-mode encoders + Writer.EventBatch) and checks that Reader and
// Tail both deliver the same events, in order, as if each had been its
// own frame.
func TestEventBatchRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader(), testBase())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DayStart(5); err != nil {
		t.Fatal(err)
	}
	var a, b Encoder
	for _, e := range []*Encoder{&a, &b} {
		e.SetDeviceTable(w.DeviceTable())
		e.SetStringTable(w.StringTable())
		e.SetRecordMode(true)
	}
	encode(t, &a,
		Event{Kind: KindInstall, Pkg: "com.x", Device: "d1", Fraud: 0.5},
		Event{Kind: KindSession, Pkg: "com.x", N: 3, Seconds: 60})
	encode(t, &b,
		Event{Kind: KindClick, Offer: "offer-1", Worker: "d2"},
		Event{Kind: KindSettle, Offer: "offer-1", N: 2, Batch: true, Gross: 1.0, AffCut: 0.3, UserPayout: 0.06,
			DevAcct: "dev:a", IIPAcct: "iip:b", AffAcct: "aff:c", UserAcct: "user:d"})
	if err := w.EventBatch(a.Bytes(), b.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Event(&Event{Kind: KindDayEnd, Day: 5, CumOrganic: 1, CumIncent: 2}); err != nil {
		t.Fatal(err)
	}
	if w.Offset() != int64(buf.Len()) {
		t.Fatalf("writer offset %d, file has %d bytes", w.Offset(), buf.Len())
	}

	wantKinds := []Kind{KindDayStart, KindInstall, KindSession, KindClick, KindSettle, KindDayEnd}
	evs := drainReader(t, buf.Bytes())
	if len(evs) != len(wantKinds) {
		t.Fatalf("reader saw %d events, want %d", len(evs), len(wantKinds))
	}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d is %s, want %s", i, ev.Kind, wantKinds[i])
		}
	}
	if evs[1].Pkg != "com.x" || evs[1].Device != "d1" || evs[1].Fraud != 0.5 {
		t.Errorf("install decoded as %+v", evs[1])
	}
	if evs[4].Offer != "offer-1" || evs[4].N != 2 || !evs[4].Batch || evs[4].UserPayout != 0.06 {
		t.Errorf("settle decoded as %+v", evs[4])
	}

	tail := NewTail(bytes.NewReader(buf.Bytes()))
	var got []Kind
	var ev Event
	for {
		ok, err := tail.Next(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, ev.Kind)
	}
	if fmt.Sprint(got) != fmt.Sprint(wantKinds) {
		t.Fatalf("tail saw %v, want %v", got, wantKinds)
	}
	if tail.Offset() != int64(buf.Len()) {
		t.Errorf("tail offset %d, want %d", tail.Offset(), buf.Len())
	}
}

// TestBatchRecordLongPayload exercises the record-mode length backpatch
// for payloads at and beyond the 1-byte uvarint limit (the shift path):
// an install batch with enough inline devices crosses 128 bytes.
func TestBatchRecordLongPayload(t *testing.T) {
	var enc Encoder
	enc.SetRecordMode(true)
	devices := make([]string, 40)
	for i := range devices {
		devices[i] = fmt.Sprintf("inline-device-%03d", i)
	}
	encode(t, &enc,
		Event{Kind: KindInstallBatch, Pkg: "com.big", Fraud: 0.25, Devices: devices},
		Event{Kind: KindInstall, Pkg: "com.big", Device: "x", Fraud: 1}) // a short record right after the shifted one

	k, payload, next, err := parseRecord(enc.Bytes(), 0)
	if err != nil || k != KindInstallBatch {
		t.Fatalf("parseRecord = %s, %v", k, err)
	}
	if len(payload) < 0x80 {
		t.Fatalf("test payload only %d bytes; need >= 128 to cover the shift path", len(payload))
	}
	var ev Event
	if err := decodePayload(k, payload, &ev, nil, nil); err != nil {
		t.Fatal(err)
	}
	if int(ev.N) != len(devices) || ev.Devices[39] != devices[39] {
		t.Fatalf("install batch decoded as n=%d", ev.N)
	}
	if k, payload, _, err = parseRecord(enc.Bytes(), next); err != nil || k != KindInstall {
		t.Fatalf("record after shifted one: %s, %v", k, err)
	}
	if err := decodePayload(k, payload, &ev, nil, nil); err != nil {
		t.Fatal(err)
	}
	if ev.Device != "x" {
		t.Fatalf("short record after shift decoded as %+v", ev)
	}
}

// segmentedTestLog writes two days separated by a segment index frame
// carrying an encoded reduced checkpoint, returning the log bytes.
func segmentedTestLog(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader(), testBase())
	if err != nil {
		t.Fatal(err)
	}
	day := func(d dates.Date) {
		if err := w.DayStart(d); err != nil {
			t.Fatal(err)
		}
		var u Encoder
		u.SetDeviceTable(w.DeviceTable())
		u.SetStringTable(w.StringTable())
		u.SetRecordMode(true)
		encode(t, &u,
			Event{Kind: KindInstall, Pkg: "com.x", Device: "d1", Fraud: float64(d)},
			Event{Kind: KindClick, Offer: "offer-1", Worker: "d2"})
		if err := w.EventBatch(u.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := w.Event(&Event{Kind: KindDayEnd, Day: d, CumOrganic: int64(d)}); err != nil {
			t.Fatal(err)
		}
	}
	day(1)
	cp := &Checkpoint{Day: 1, Days: 1, Store: []byte("s2"), Ledger: []byte("l2")}
	if err := w.StartSegment(2, cp.Encode()); err != nil {
		t.Fatal(err)
	}
	day(2)
	return buf.Bytes()
}

// TestSegmentFrameIndexedAndSkipped checks that segment index frames are
// invisible to Reader/Tail consumers, that ScanIndex recovers the
// segment directory and per-day offsets, and that SeekToDay lands a tail
// on the requested day across a segment boundary.
func TestSegmentFrameIndexedAndSkipped(t *testing.T) {
	data := segmentedTestLog(t)

	evs := drainReader(t, data)
	var kinds []Kind
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind)
	}
	want := []Kind{KindDayStart, KindInstall, KindClick, KindDayEnd,
		KindDayStart, KindInstall, KindClick, KindDayEnd}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("reader saw %v, want %v", kinds, want)
	}

	idx, err := ScanIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Segments) != 2 || idx.Segments[0].Ordinal != 0 || idx.Segments[1].Ordinal != 1 {
		t.Fatalf("segments = %+v", idx.Segments)
	}
	if idx.Segments[1].FirstDay != 2 {
		t.Fatalf("segment 1 = %+v", idx.Segments[1])
	}
	if cp, err := idx.SegmentCheckpoint(bytes.NewReader(data), 0); cp != nil || err != nil {
		t.Fatalf("segment 0 checkpoint = %+v, %v; want none", cp, err)
	}
	cp, err := idx.SegmentCheckpoint(bytes.NewReader(data), 1)
	if err != nil || cp.Day != 1 || string(cp.Store) != "s2" {
		t.Fatalf("embedded checkpoint = %+v, %v", cp, err)
	}
	if len(idx.Days) != 2 || idx.Days[0].Segment != 0 || idx.Days[1].Segment != 1 {
		t.Fatalf("days = %+v", idx.Days)
	}
	if idx.End != int64(len(data)) || idx.Torn {
		t.Fatalf("End=%d Torn=%v, want %d/false", idx.End, idx.Torn, len(data))
	}
	if got := idx.Segment(1); got != 0 {
		t.Errorf("Segment(1) = %d, want 0", got)
	}
	if got := idx.Segment(2); got != 1 {
		t.Errorf("Segment(2) = %d, want 1", got)
	}
	if last, ok := idx.LastDay(); !ok || last != 2 {
		t.Errorf("LastDay = %v, %v", last, ok)
	}

	tail := NewTail(bytes.NewReader(data))
	ok, err := tail.SeekToDay(2)
	if err != nil || !ok {
		t.Fatalf("SeekToDay(2) = %v, %v", ok, err)
	}
	var ev Event
	if ok, err := tail.Next(&ev); !ok || err != nil || ev.Kind != KindDayStart || ev.Day != 2 {
		t.Fatalf("first event after seek = %+v (%v, %v)", ev, ok, err)
	}
	if ok, err := tail.Next(&ev); !ok || err != nil || ev.Kind != KindInstall || ev.Fraud != 2 {
		t.Fatalf("second event after seek = %+v (%v, %v)", ev, ok, err)
	}
	if ok, err := tail.SeekToDay(7); ok || err != nil {
		t.Fatalf("SeekToDay(7) on 2-day log = %v, %v, want false", ok, err)
	}
}

// TestTailNeverDeliversTornBatch feeds the tail every possible prefix of
// a segmented, batched log: it must never error, never deliver a partial
// batch (the frame CRC gates the whole batch), and always deliver a
// prefix of the complete event sequence.
func TestTailNeverDeliversTornBatch(t *testing.T) {
	data := segmentedTestLog(t)
	full := drainReader(t, data)

	for cut := 0; cut <= len(data); cut++ {
		tail := NewTail(bytes.NewReader(data[:cut]))
		var got []Event
		for {
			var ev Event
			ok, err := tail.Next(&ev)
			if err != nil {
				t.Fatalf("cut=%d: tail error %v", cut, err)
			}
			if !ok {
				break
			}
			ev.Devices, ev.Entries = nil, nil
			got = append(got, ev)
		}
		if len(got) > len(full) {
			t.Fatalf("cut=%d: %d events from a %d-event log", cut, len(got), len(full))
		}
		for i := range got {
			if got[i].Kind != full[i].Kind || got[i].Day != full[i].Day || got[i].Fraud != full[i].Fraud {
				t.Fatalf("cut=%d: event %d = %+v, want %+v", cut, i, got[i], full[i])
			}
		}
		// A batch's records become visible all-or-nothing: the install and
		// click of a day share one batch frame, so a prefix may never end
		// between them.
		if len(got) > 0 && got[len(got)-1].Kind == KindInstall {
			t.Fatalf("cut=%d: prefix ends mid-batch (install without its click)", cut)
		}
	}
}

// TestCorruptBatchFrameRejected flips one byte inside a batch frame's
// payload: the whole batch must be rejected by Reader (CRC error) and
// withheld by Tail.
func TestCorruptBatchFrameRejected(t *testing.T) {
	data := segmentedTestLog(t)
	idx, err := ScanIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// The batch frame follows the first day-start frame; its payload
	// starts 5 bytes past the frame header.
	dayOff := idx.Days[0].Offset
	f, err := binenc.ScanFrame(data[dayOff:], maxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	batchOff := dayOff + f.Size()
	corrupt := append([]byte(nil), data...)
	corrupt[batchOff+5] ^= 0xFF

	r, err := NewReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	for err == nil {
		err = r.Next(&ev)
	}
	if !errorsIsCRC(err) {
		t.Fatalf("reader on corrupt batch = %v, want CRC error", err)
	}

	tail := NewTail(bytes.NewReader(corrupt))
	for {
		ok, err := tail.Next(&ev)
		if err != nil {
			if !errorsIsCRC(err) {
				t.Fatalf("tail on corrupt batch = %v, want CRC error", err)
			}
			break
		}
		if !ok {
			t.Fatal("tail silently stopped on corrupt batch, want CRC error")
		}
		if ev.Kind == KindInstall {
			t.Fatal("tail delivered an event from a corrupt batch")
		}
	}
}

func errorsIsCRC(err error) bool { return errors.Is(err, ErrCRC) }

// TestScanIndexTornLog truncates the log mid-frame: the scan must stop at
// the last complete frame and mark the index torn, so seeks on a killed
// run's log work up to the kill point.
func TestScanIndexTornLog(t *testing.T) {
	data := segmentedTestLog(t)
	idx, err := ScanIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	lastDayOff := idx.Days[1].Offset
	torn, err := ScanIndex(bytes.NewReader(data[:lastDayOff+3]))
	if err != nil {
		t.Fatal(err)
	}
	if !torn.Torn || torn.End != lastDayOff {
		t.Fatalf("torn scan End=%d Torn=%v, want %d/true", torn.End, torn.Torn, lastDayOff)
	}
	if len(torn.Days) != 1 {
		t.Fatalf("torn scan found %d days, want 1", len(torn.Days))
	}
}

// TestCheckpointSegmentStateRoundTrip covers the v2 checkpoint fields and
// their writer plumbing: RecordSegmentState → Encode → Decode →
// RestoreSegmentState must reproduce the rotation state exactly.
func TestCheckpointSegmentStateRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader(), testBase())
	if err != nil {
		t.Fatal(err)
	}
	w.SetSegmentBytes(10)
	if err := w.DayStart(1); err != nil {
		t.Fatal(err)
	}
	if !w.ShouldRotate() {
		t.Fatal("10-byte threshold not reached after a day-start frame")
	}
	if err := w.StartSegment(2, nil); err != nil {
		t.Fatal(err)
	}
	if w.ShouldRotate() {
		t.Fatal("rotation still pending right after StartSegment")
	}

	cp := &Checkpoint{Day: 1, LogOffset: w.Offset()}
	w.RecordSegmentState(cp)
	decoded, err := DecodeCheckpoint(cp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.SegBytes != 10 || decoded.SegStart != w.Offset() || decoded.SegOrdinal != 1 {
		t.Fatalf("decoded segment state = %d/%d/%d", decoded.SegBytes, decoded.SegStart, decoded.SegOrdinal)
	}

	resumed := ResumeWriter(&bytes.Buffer{}, decoded.LogOffset, nil, nil)
	resumed.RestoreSegmentState(decoded)
	if resumed.ShouldRotate() {
		t.Fatal("resumed writer wants immediate rotation; segment state not restored")
	}
	var probe Checkpoint
	resumed.RecordSegmentState(&probe)
	if probe.SegBytes != 10 || probe.SegStart != decoded.SegStart || probe.SegOrdinal != 1 {
		t.Fatalf("resumed segment state = %d/%d/%d", probe.SegBytes, probe.SegStart, probe.SegOrdinal)
	}
}

// TestReadVersionCompat pins the version window: v2 logs (frame-per-event,
// no batches or segments) still read, and versions outside
// [minReadVersion, Version] are rejected.
func TestReadVersionCompat(t *testing.T) {
	h := testHeader()
	h.Version = 2
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h, testBase())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DayStart(3); err != nil {
		t.Fatal(err)
	}
	if err := w.Event(&Event{Kind: KindInstall, Pkg: "com.x", Device: "d1", Fraud: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Event(&Event{Kind: KindDayEnd, Day: 3, CumOrganic: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Version != 2 {
		t.Fatalf("header version 2 read back as %d", r.Header().Version)
	}
	var kinds []Kind
	for {
		var ev Event
		err := r.Next(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []Kind{KindDayStart, KindInstall, KindDayEnd}
	if len(kinds) != len(want) {
		t.Fatalf("v2 log read %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("v2 log read %v, want %v", kinds, want)
		}
	}

	for _, v := range []uint32{0, 1, Version + 1} {
		h := testHeader()
		h.Version = v
		var buf bytes.Buffer
		if _, err := NewWriter(&buf, h, testBase()); err != nil {
			t.Fatal(err)
		}
		if _, err := NewReader(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("version %d accepted, want rejection", v)
		}
	}
}

// settledLog writes a three-day log that installs and settles on a real
// store and ledger, with a segment frame before days 2 and 3 (days 101
// to 103). Each segment frame embeds the live store snapshot and
// ledgerForm's encoding of the live ledger: EncodeBalances is what the
// writer embeds, EncodeSnapshot what logs written before balances-only
// segment frames embed. It returns the log and the live ledger's final
// snapshot.
func settledLog(tb testing.TB, ledgerForm func(*mediator.Ledger) []byte) ([]byte, []byte) {
	tb.Helper()
	day0 := dates.Date(101)
	store := playstore.New(day0)
	store.SetChartSize(4)
	store.AddDeveloper(playstore.Developer{ID: "d"})
	if err := store.Publish(playstore.Listing{Package: "com.b", Title: "B", Genre: "Casual", Developer: "d", Released: day0.AddDays(-30)}); err != nil {
		tb.Fatal(err)
	}
	ledger := mediator.NewLedger()
	// The base ledger has history of its own, which a rebuild keeps.
	if err := ledger.Post(mediator.ExternalWorld, "dev:d", 50, "funding"); err != nil {
		tb.Fatal(err)
	}
	hdr := Header{Version: Version, Seed: 1, WindowStart: day0, WindowEnd: day0 + 2, MediatorName: "med", FeePerUser: 0.03}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr, Base{
		Store: store.EncodeSnapshot(), Ledger: ledger.EncodeSnapshot(), Mediator: mediator.New("med").EncodeSnapshot(),
		Devices: []string{"w1", "w2"}, Strings: []string{"com.b", "offer-1", "dev:d", "iip:x", "affiliate:z"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	medAcct := mediator.MediatorAccount(hdr.MediatorName)
	var cumIncent int64
	for day := day0; day <= hdr.WindowEnd; day++ {
		if day > day0 {
			cp := &Checkpoint{
				Day: day - 1, Days: int64(day - day0), IncentivizedInstalls: cumIncent,
				Store: store.EncodeSnapshot(), Ledger: ledgerForm(ledger),
			}
			if err := w.StartSegment(day, cp.Encode()); err != nil {
				tb.Fatal(err)
			}
		}
		if err := w.DayStart(day); err != nil {
			tb.Fatal(err)
		}
		var unit Encoder
		unit.SetRecordMode(true)
		unit.SetDeviceTable(w.DeviceTable())
		unit.SetStringTable(w.StringTable())
		settles := []Event{
			{Kind: KindSettle, Offer: "offer-1", N: 1, Gross: 0.12, AffCut: 0.025, UserPayout: 0.06,
				DevAcct: "dev:d", IIPAcct: "iip:x", AffAcct: "affiliate:z", UserAcct: "user:w1"},
			{Kind: KindSettle, Offer: "offer-1", N: int64(day - day0 + 2), Batch: true, Gross: 0.36 * float64(day), AffCut: 0.07, UserPayout: 0.2,
				DevAcct: "dev:d", IIPAcct: "iip:x", AffAcct: "affiliate:z", UserAcct: "user:w2"},
		}
		encode(tb, &unit, Event{Kind: KindInstall, Pkg: "com.b", Device: "w1", Fraud: 0.9})
		if err := store.RecordInstall("com.b", playstore.Install{Day: day, Source: playstore.SourceReferral, FraudScore: 0.9}); err != nil {
			tb.Fatal(err)
		}
		for i := range settles {
			encode(tb, &unit, settles[i])
			legs := settles[i].settlement(hdr, medAcct).Legs()
			if err := ledger.PostAll(legs[:]); err != nil {
				tb.Fatal(err)
			}
			cumIncent += settles[i].N
		}
		if err := w.EventBatch(unit.Bytes()); err != nil {
			tb.Fatal(err)
		}
		store.StepDay(day)
		for _, act := range store.LastEnforcementActions() {
			if err := w.Event(&Event{Kind: KindEnforce, Pkg: act.Package, N: act.Removed}); err != nil {
				tb.Fatal(err)
			}
		}
		for _, name := range playstore.ChartNames {
			if err := w.Event(&Event{Kind: KindChart, Chart: name, Entries: store.Chart(name)}); err != nil {
				tb.Fatal(err)
			}
		}
		if err := w.Event(&Event{Kind: KindDayEnd, Day: day, CumIncent: cumIncent}); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes(), ledger.EncodeSnapshot()
}

// TestReplayDayReadsBothSegmentForms seeks every day of a log whose
// segment frames embed the ledger's balances and of the same log with
// full-history segment frames: both must rebuild the same store, ledger
// (history included) and stats, and at the last day the live ledger.
func TestReplayDayReadsBothSegmentForms(t *testing.T) {
	balances, liveLedger := settledLog(t, (*mediator.Ledger).EncodeBalances)
	full, _ := settledLog(t, (*mediator.Ledger).EncodeSnapshot)
	if len(balances) >= len(full) {
		t.Fatalf("balances-only log is %d bytes, full-history log %d", len(balances), len(full))
	}
	idx, err := ScanIndex(bytes.NewReader(balances))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Segments) != 3 {
		t.Fatalf("%d segments, want 3", len(idx.Segments))
	}
	for i, seg := range idx.Segments[1:] {
		cp, err := idx.SegmentCheckpoint(bytes.NewReader(balances), i+1)
		if err != nil {
			t.Fatal(err)
		}
		l := mediator.NewLedger()
		if err := l.RestoreSnapshot(cp.Ledger); err != nil {
			t.Fatal(err)
		}
		if n := l.NumTransactions(); n != 0 {
			t.Errorf("segment %d embeds %d transfers, want balances only", seg.Ordinal, n)
		}
	}
	for day := dates.Date(101); day <= 103; day++ {
		got, err := ReplayDay(bytes.NewReader(balances), day)
		if err != nil {
			t.Fatalf("balances-only log, day %s: %v", day, err)
		}
		want, err := ReplayDay(bytes.NewReader(full), day)
		if err != nil {
			t.Fatalf("full-history log, day %s: %v", day, err)
		}
		if got.Stats != want.Stats {
			t.Errorf("day %s: stats %+v, full-history form %+v", day, got.Stats, want.Stats)
		}
		if !bytes.Equal(got.Store.EncodeSnapshot(), want.Store.EncodeSnapshot()) {
			t.Errorf("day %s: store differs between the segment forms", day)
		}
		if !bytes.Equal(got.Ledger.EncodeSnapshot(), want.Ledger.EncodeSnapshot()) {
			t.Errorf("day %s: ledger differs between the segment forms", day)
		}
		if day == 103 && !bytes.Equal(got.Ledger.EncodeSnapshot(), liveLedger) {
			t.Error("ledger at the last day differs from the live ledger")
		}
	}
}

// TestReplayDayRefusesDivergedBalances embeds balances in the segment
// frames that the log's settle records do not add up to: a seek past the
// first segment frame must fail with ErrReplayDiverged, while a seek
// within the first segment and a full replay, which read no segment
// frame, still succeed.
func TestReplayDayRefusesDivergedBalances(t *testing.T) {
	data, _ := settledLog(t, func(l *mediator.Ledger) []byte {
		off := mediator.NewLedger()
		if err := off.RestoreSnapshot(l.EncodeBalances()); err != nil {
			t.Fatal(err)
		}
		if err := off.Post("dev:d", "iip:x", 0.01, "not in the log"); err != nil {
			t.Fatal(err)
		}
		return off.EncodeBalances()
	})
	for _, day := range []dates.Date{102, 103} {
		if _, err := ReplayDay(bytes.NewReader(data), day); !errors.Is(err, ErrReplayDiverged) {
			t.Errorf("ReplayDay(%s) = %v, want ErrReplayDiverged", day, err)
		}
	}
	if _, err := ReplayDay(bytes.NewReader(data), 101); err != nil {
		t.Errorf("ReplayDay within the first segment: %v", err)
	}
	if _, err := Replay(bytes.NewReader(data)); err != nil {
		t.Errorf("full replay: %v", err)
	}
}
