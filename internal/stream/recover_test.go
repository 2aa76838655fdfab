package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dates"
	"repro/internal/mediator"
	"repro/internal/playstore"
)

// recoverLog is a synthetic multi-day log plus the offsets ScanValid
// should treat as salvage boundaries.
type recoverLog struct {
	data []byte
	// boundaries are all valid truncation points in ascending order: the
	// preamble end, each day-end frame end, and each segment frame end.
	boundaries []int64
	// dayEnds are the subset of boundaries that close a day, in day order
	// (dayEnds[i] = end of day i+1's day-end frame).
	dayEnds []int64
}

// buildRecoverLog writes days complete days through the real Writer,
// with an event batch and standalone frames per day, rotating a segment
// after every segEvery days (0 = never).
func buildRecoverLog(t *testing.T, days, segEvery int) recoverLog {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader(), testBase())
	if err != nil {
		t.Fatal(err)
	}
	rl := recoverLog{boundaries: []int64{w.Offset()}}
	for d := 1; d <= days; d++ {
		day := dates.Date(d)
		if err := w.DayStart(day); err != nil {
			t.Fatal(err)
		}
		var e Encoder
		e.SetDeviceTable(w.DeviceTable())
		e.SetStringTable(w.StringTable())
		e.SetRecordMode(true)
		encode(t, &e,
			Event{Kind: KindInstall, Pkg: "com.x", Device: "d1", Fraud: 0.5},
			Event{Kind: KindClick, Offer: "offer-1", Worker: "d2"},
			Event{Kind: KindSession, Pkg: "com.x", N: int64(d), Seconds: 60})
		if err := w.EventBatch(e.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := w.Event(&Event{Kind: KindEnforce, Pkg: "com.x", N: int64(d)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Event(&Event{Kind: KindDayEnd, Day: day, CumOrganic: int64(d), CumIncent: 2, CumRevenue: 0.25}); err != nil {
			t.Fatal(err)
		}
		rl.boundaries = append(rl.boundaries, w.Offset())
		rl.dayEnds = append(rl.dayEnds, w.Offset())
		if segEvery > 0 && d%segEvery == 0 && d < days {
			if err := w.StartSegment(day+1, []byte("ckpt")); err != nil {
				t.Fatal(err)
			}
			rl.boundaries = append(rl.boundaries, w.Offset())
		}
	}
	rl.data = buf.Bytes()
	return rl
}

// want returns the expected salvage point and day count for a log
// truncated at cut.
func (rl recoverLog) want(cut int64) (validEnd int64, days int) {
	validEnd = rl.boundaries[0]
	for _, b := range rl.boundaries {
		if b <= cut && b > validEnd {
			validEnd = b
		}
	}
	for _, b := range rl.dayEnds {
		if b <= cut {
			days++
		}
	}
	return validEnd, days
}

func TestScanValidClean(t *testing.T) {
	rl := buildRecoverLog(t, 4, 2)
	info, err := ScanValid(bytes.NewReader(rl.data), int64(len(rl.data)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Corruption != nil {
		t.Fatalf("clean log flagged corrupt: %v", info.Corruption)
	}
	if info.ValidEnd != int64(len(rl.data)) || info.ScannedEnd != int64(len(rl.data)) {
		t.Fatalf("clean log: ValidEnd=%d ScannedEnd=%d, want %d", info.ValidEnd, info.ScannedEnd, len(rl.data))
	}
	if info.Days != 4 || info.LastDay != 4 {
		t.Fatalf("clean log: Days=%d LastDay=%v, want 4/4", info.Days, info.LastDay)
	}
	if info.Dropped() != 0 {
		t.Fatalf("clean log drops %d bytes", info.Dropped())
	}
}

// TestScanValidTornTail truncates the log at every byte position past the
// preamble: each cut must salvage exactly to the last boundary at or
// before it, report the matching day count, and never flag corruption —
// a torn tail is incomplete, not corrupt.
func TestScanValidTornTail(t *testing.T) {
	rl := buildRecoverLog(t, 3, 2)
	for cut := rl.boundaries[0]; cut <= int64(len(rl.data)); cut++ {
		info, err := ScanValid(bytes.NewReader(rl.data[:cut]), cut)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if info.Corruption != nil {
			t.Fatalf("cut %d: truncation flagged corrupt: %v", cut, info.Corruption)
		}
		wantEnd, wantDays := rl.want(cut)
		if info.ValidEnd != wantEnd || info.Days != wantDays {
			t.Fatalf("cut %d: ValidEnd=%d Days=%d, want %d/%d", cut, info.ValidEnd, info.Days, wantEnd, wantDays)
		}
	}
}

// TestScanValidBitFlip corrupts the first payload byte of day 3's
// day-start frame: salvage must stop at day 2's boundary and locate the
// corrupt frame exactly.
func TestScanValidBitFlip(t *testing.T) {
	rl := buildRecoverLog(t, 3, 0)
	data := append([]byte(nil), rl.data...)
	frameStart := rl.dayEnds[1] // day 3's day-start frame begins here
	data[frameStart+5] ^= 0xff  // first payload byte: CRC now fails
	info, err := ScanValid(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Corruption == nil {
		t.Fatal("bit flip not flagged")
	}
	if info.Corruption.Offset != frameStart {
		t.Fatalf("corruption at %d, want %d", info.Corruption.Offset, frameStart)
	}
	if !errors.Is(info.Corruption, ErrCRC) {
		t.Fatalf("corruption error %v, want ErrCRC", info.Corruption.Err)
	}
	if info.ValidEnd != rl.dayEnds[1] || info.Days != 2 {
		t.Fatalf("ValidEnd=%d Days=%d, want %d/2", info.ValidEnd, info.Days, rl.dayEnds[1])
	}
	if info.ScannedEnd != frameStart {
		t.Fatalf("ScannedEnd=%d, want %d", info.ScannedEnd, frameStart)
	}
}

// TestScanValidStructure: frames that decode but violate the day bracket
// (events outside a day, nested day-starts, mismatched day-end) are
// corruption, so a salvaged prefix is always Replay-shaped.
func TestScanValidStructure(t *testing.T) {
	build := func(f func(w *Writer)) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testHeader(), testBase())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.DayStart(1); err != nil {
			t.Fatal(err)
		}
		if err := w.Event(&Event{Kind: KindDayEnd, Day: 1, CumOrganic: 1}); err != nil {
			t.Fatal(err)
		}
		f(w)
		return buf.Bytes()
	}
	cases := []struct {
		name string
		f    func(w *Writer)
	}{
		{"event outside day", func(w *Writer) {
			if err := w.Event(&Event{Kind: KindEnforce, Pkg: "com.x", N: 1}); err != nil {
				t.Fatal(err)
			}
		}},
		{"nested day start", func(w *Writer) {
			if err := w.DayStart(2); err != nil {
				t.Fatal(err)
			}
			if err := w.DayStart(3); err != nil {
				t.Fatal(err)
			}
		}},
		{"mismatched day end", func(w *Writer) {
			if err := w.DayStart(2); err != nil {
				t.Fatal(err)
			}
			if err := w.Event(&Event{Kind: KindDayEnd, Day: 9, CumOrganic: 1}); err != nil {
				t.Fatal(err)
			}
		}},
		{"day end without start", func(w *Writer) {
			if err := w.Event(&Event{Kind: KindDayEnd, Day: 2, CumOrganic: 1}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := build(tc.f)
			info, err := ScanValid(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			if info.Corruption == nil {
				t.Fatal("structural violation not flagged")
			}
			if info.Days != 1 {
				t.Fatalf("Days=%d, want 1 (the intact day)", info.Days)
			}
		})
	}
}

// TestRecoverFile: Recover truncates the file to the salvage point, the
// salvaged log passes ScanIndex and Replay machinery (via a full Reader
// drain), and a second Recover is a no-op.
func TestRecoverFile(t *testing.T) {
	rl := buildRecoverLog(t, 3, 2)
	cut := rl.dayEnds[1] + 7 // mid-frame inside day 3
	path := filepath.Join(t.TempDir(), "torn.log")
	if err := os.WriteFile(path, rl.data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	wantEnd, _ := rl.want(cut)
	if info.ValidEnd != wantEnd || info.Days != 2 || info.Dropped() != cut-wantEnd {
		t.Fatalf("recover: ValidEnd=%d Days=%d Dropped=%d, want %d/2/%d",
			info.ValidEnd, info.Days, info.Dropped(), wantEnd, cut-wantEnd)
	}
	salvaged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(salvaged)) != wantEnd {
		t.Fatalf("file is %d bytes after recover, want %d", len(salvaged), wantEnd)
	}
	if !bytes.Equal(salvaged, rl.data[:wantEnd]) {
		t.Fatal("salvaged prefix differs from the original bytes")
	}
	// The salvaged log is fully consumable.
	evs := drainReader(t, salvaged)
	var daysSeen int
	for _, ev := range evs {
		if ev.Kind == KindDayEnd {
			daysSeen++
		}
	}
	if daysSeen != 2 {
		t.Fatalf("salvaged log replays %d days, want 2", daysSeen)
	}
	if _, err := ScanIndex(bytes.NewReader(salvaged)); err != nil {
		t.Fatalf("salvaged log fails ScanIndex: %v", err)
	}
	// Idempotent: recovering an intact log drops nothing.
	info2, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Dropped() != 0 || info2.ValidEnd != wantEnd || info2.Days != 2 {
		t.Fatalf("second recover not a no-op: %+v", info2)
	}
}

// TestRecoverBadPreamble: a log whose preamble is unreadable is not
// salvageable; the file must be left untouched.
func TestRecoverBadPreamble(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.log")
	junk := []byte("not a run log at all, definitely long enough to scan")
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(path); err == nil {
		t.Fatal("garbage preamble recovered without error")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, junk) {
		t.Fatal("unsalvageable file was modified")
	}
}

// FuzzRecover feeds ScanValid arbitrarily mangled logs: it must never
// panic, never salvage past a corrupt frame, and always produce a prefix
// that re-scans clean with the same day count.
func FuzzRecover(f *testing.F) {
	var seedBuf bytes.Buffer
	w, err := NewWriter(&seedBuf, testHeader(), testBase())
	if err != nil {
		f.Fatal(err)
	}
	for d := dates.Date(1); d <= 3; d++ {
		var e Encoder
		e.SetDeviceTable(w.DeviceTable())
		e.SetStringTable(w.StringTable())
		e.SetRecordMode(true)
		encode(f, &e,
			Event{Kind: KindInstall, Pkg: "com.x", Device: "d1", Fraud: 0.5},
			Event{Kind: KindClick, Offer: "offer-1", Worker: "d2"})
		if err := w.DayStart(d); err != nil {
			f.Fatal(err)
		}
		if err := w.EventBatch(e.Bytes()); err != nil {
			f.Fatal(err)
		}
		if err := w.Event(&Event{Kind: KindDayEnd, Day: d, CumOrganic: 1, CumIncent: 1}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.StartSegment(4, []byte("ckpt")); err != nil {
		f.Fatal(err)
	}
	clean := seedBuf.Bytes()
	f.Add(clean, uint16(0), byte(0))
	f.Add(clean, uint16(len(clean)/2), byte(0xff))
	f.Add(clean[:len(clean)-3], uint16(0), byte(0))
	f.Add([]byte(Magic), uint16(0), byte(0))

	f.Fuzz(func(t *testing.T, data []byte, pos uint16, flip byte) {
		if len(data) > 0 {
			data = append([]byte(nil), data...)
			data[int(pos)%len(data)] ^= flip
		}
		info, err := ScanValid(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return // unsalvageable preamble: nothing else to check
		}
		if info.ValidEnd > int64(len(data)) || info.ValidEnd < 0 {
			t.Fatalf("ValidEnd=%d outside input of %d bytes", info.ValidEnd, len(data))
		}
		if info.Corruption != nil && info.ValidEnd > info.Corruption.Offset {
			t.Fatalf("salvaged to %d, past corruption at %d", info.ValidEnd, info.Corruption.Offset)
		}
		// The salvaged prefix must itself be a clean, fully-valid log with
		// the same day count.
		prefix := data[:info.ValidEnd]
		again, err := ScanValid(bytes.NewReader(prefix), int64(len(prefix)))
		if err != nil {
			t.Fatalf("salvaged prefix unreadable: %v", err)
		}
		if again.Corruption != nil {
			t.Fatalf("salvaged prefix still corrupt: %v", again.Corruption)
		}
		if again.ValidEnd != info.ValidEnd || again.Days != info.Days {
			t.Fatalf("re-scan of salvaged prefix: ValidEnd=%d Days=%d, want %d/%d",
				again.ValidEnd, again.Days, info.ValidEnd, info.Days)
		}
	})
}

// replayableLog writes a log Replay can rebuild — real store, ledger and
// mediator snapshots in its base — holding one intact day, then calls
// more to append frames after it. It returns the bytes and the length of
// the intact prefix.
func replayableLog(t *testing.T, more func(w *Writer)) ([]byte, int64) {
	t.Helper()
	day := dates.Date(100)
	store := playstore.New(day)
	store.AddDeveloper(playstore.Developer{ID: "d"})
	if err := store.Publish(playstore.Listing{Package: "com.x", Title: "x", Genre: "Casual", Developer: "d", Released: day.AddDays(-30)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf,
		Header{Version: Version, Seed: 1, WindowStart: day, WindowEnd: day + 9, MediatorName: "med", FeePerUser: 0.03},
		Base{Store: store.EncodeSnapshot(), Ledger: mediator.NewLedger().EncodeSnapshot(), Mediator: mediator.New("med").EncodeSnapshot(),
			Devices: []string{"w1"}, Strings: []string{"com.x", "offer-1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DayStart(day); err != nil {
		t.Fatal(err)
	}
	if err := w.Event(&Event{Kind: KindDayEnd, Day: day}); err != nil {
		t.Fatal(err)
	}
	intact := w.Offset()
	more(w)
	return buf.Bytes(), intact
}

// TestReplayAndScanValidAgreeOnStructure: Replay and ScanValid hold a log
// to the same day bracket, so every frame salvage would refuse as
// structurally impossible, replay refuses too — including clicks and
// settlements outside a day, which carry no store state.
func TestReplayAndScanValidAgreeOnStructure(t *testing.T) {
	event := func(ev Event) func(w *Writer) {
		return func(w *Writer) {
			if err := w.Event(&ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	frames := func(f ...func(w *Writer) error) func(w *Writer) {
		return func(w *Writer) {
			for _, step := range f {
				if err := step(w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cases := []struct {
		name string
		more func(w *Writer)
	}{
		{"event outside day", event(Event{Kind: KindEnforce, Pkg: "com.x", N: 1})},
		{"nested day start", frames(
			func(w *Writer) error { return w.DayStart(101) },
			func(w *Writer) error { return w.DayStart(102) })},
		{"mismatched day end", frames(
			func(w *Writer) error { return w.DayStart(101) },
			func(w *Writer) error { return w.Event(&Event{Kind: KindDayEnd, Day: 109}) })},
		{"day end without start", frames(
			func(w *Writer) error { return w.Event(&Event{Kind: KindDayEnd, Day: 101}) })},
		{"click outside day", event(Event{Kind: KindClick, Offer: "offer-1", Worker: "w1"})},
		{"settle outside day", event(Event{Kind: KindSettle, Offer: "offer-1", N: 1, Gross: 0.12, AffCut: 0.025, UserPayout: 0.06,
			DevAcct: "dev:d", IIPAcct: "iip:x", AffAcct: "affiliate:z", UserAcct: "user:w1"})},
		{"batched click outside day", func(w *Writer) {
			var e Encoder
			e.SetRecordMode(true)
			encode(t, &e, Event{Kind: KindClick, Offer: "offer-1", Worker: "w1"})
			if err := w.EventBatch(e.Bytes()); err != nil {
				t.Fatal(err)
			}
		}},
	}

	data, intact := replayableLog(t, func(*Writer) {})
	if res, err := Replay(bytes.NewReader(data)); err != nil || res.Stats.Days != 1 {
		t.Fatalf("intact log: replay err %v", err)
	}
	if info, err := ScanValid(bytes.NewReader(data), int64(len(data))); err != nil || info.Corruption != nil || info.ValidEnd != intact {
		t.Fatalf("intact log: scan %+v, %v", info, err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, intact := replayableLog(t, tc.more)
			if _, err := Replay(bytes.NewReader(data)); !errors.Is(err, ErrFrame) {
				t.Fatalf("replay err %v, want ErrFrame", err)
			}
			info, err := ScanValid(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			if info.Corruption == nil || !errors.Is(info.Corruption, ErrFrame) {
				t.Fatalf("corruption %v, want a structural ErrFrame", info.Corruption)
			}
			if info.Days != 1 || info.ValidEnd != intact {
				t.Fatalf("Days=%d ValidEnd=%d, want 1/%d", info.Days, info.ValidEnd, intact)
			}
		})
	}
}

// TestScanValidKeepsEmptyBatchAtDayBoundary pins the salvage rule for
// frames that carry no event: whatever whole frames follow a day
// boundary before the next event — segment index frames, and an empty
// event batch, which the writer never emits — join the salvaged prefix,
// and that prefix replays and re-scans clean.
func TestScanValidKeepsEmptyBatchAtDayBoundary(t *testing.T) {
	var boundary int64
	data, _ := replayableLog(t, func(w *Writer) {
		if err := w.AppendFrames(binenc.AppendFrame(nil, uint8(KindEventBatch), nil)); err != nil {
			t.Fatal(err)
		}
		boundary = w.Offset()
		if err := w.DayStart(101); err != nil {
			t.Fatal(err)
		}
	})
	torn := data[:len(data)-2]
	info, err := ScanValid(bytes.NewReader(torn), int64(len(torn)))
	if err != nil {
		t.Fatal(err)
	}
	if whole, err := ScanValid(bytes.NewReader(data), int64(len(torn))); err != nil || whole != info {
		t.Fatalf("scan bounded by size %+v, %v; want the torn copy's %+v", whole, err, info)
	}
	if info.Corruption != nil || info.ValidEnd != boundary || info.ScannedEnd != boundary || info.Days != 1 {
		t.Fatalf("scan %+v, want a torn tail salvaged to %d with 1 day", info, boundary)
	}
	prefix := torn[:info.ValidEnd]
	if res, err := Replay(bytes.NewReader(prefix)); err != nil || res.Stats.Days != 1 {
		t.Fatalf("salvaged prefix: replay err %v", err)
	}
	again, err := ScanValid(bytes.NewReader(prefix), int64(len(prefix)))
	if err != nil || again.Corruption != nil || again.ValidEnd != boundary {
		t.Fatalf("salvaged prefix re-scan %+v, %v", again, err)
	}
}

// TestScanValidDayEndInsideBatch: a day boundary is the end of a frame.
// A batch that closes one day and opens the next (which the writer never
// writes) salvages to before the batch with the closed day not counted,
// unless the batch also closes the day it opened.
func TestScanValidDayEndInsideBatch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		closes   bool
		wantDays int
	}{{"batch ends inside day 2", false, 0}, {"batch closes day 2", true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, testHeader(), testBase())
			if err != nil {
				t.Fatal(err)
			}
			preamble := w.Offset()
			if err := w.DayStart(1); err != nil {
				t.Fatal(err)
			}
			var e Encoder
			e.SetRecordMode(true)
			e.DayEnd(1, 0, 0, 0, 0)
			e.DayStart(2)
			encode(t, &e, Event{Kind: KindClick, Offer: "offer-1", Worker: "d2"})
			if tc.closes {
				e.DayEnd(2, 0, 0, 0, 0)
			}
			if err := w.EventBatch(e.Bytes()); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			info, err := ScanValid(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			wantEnd := preamble
			if tc.closes {
				wantEnd = int64(len(data))
			}
			if info.Corruption != nil || info.ValidEnd != wantEnd || info.Days != tc.wantDays {
				t.Fatalf("scan %+v, want ValidEnd=%d Days=%d", info, wantEnd, tc.wantDays)
			}
		})
	}
}

// TestScanValidLocatesBadBatchRecord: inside a CRC-valid batch, a record
// that does not parse is reported as the batch frame's corruption, and
// one that parses but does not decode under its own kind.
func TestScanValidLocatesBadBatchRecord(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record []byte
		want   Kind
	}{
		{"length overruns the batch", []byte{byte(KindClick), 9}, KindEventBatch},
		{"payload does not decode", []byte{byte(KindClick), 1, 0xff}, KindClick},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, testHeader(), testBase())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.DayStart(1); err != nil {
				t.Fatal(err)
			}
			var e Encoder
			e.SetRecordMode(true)
			encode(t, &e, Event{Kind: KindClick, Offer: "offer-1", Worker: "d2"})
			batchAt := w.Offset()
			if err := w.EventBatch(e.Bytes(), tc.record); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			info, err := ScanValid(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			c := info.Corruption
			if c == nil || c.Offset != batchAt || c.Kind != tc.want || info.ScannedEnd != batchAt {
				t.Fatalf("corruption %+v scanned to %d, want %s at %d", c, info.ScannedEnd, tc.want, batchAt)
			}
		})
	}
}
