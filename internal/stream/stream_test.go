package stream

import (
	"bytes"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dates"
	"repro/internal/mediator"
	"repro/internal/playstore"
	"repro/internal/randx"
)

// encode appends evs to e through Encoder.Event, which resolves their
// strings against e's tables.
func encode(tb testing.TB, e *Encoder, evs ...Event) {
	tb.Helper()
	for i := range evs {
		if err := e.Event(&evs[i]); err != nil {
			tb.Fatal(err)
		}
	}
}

// bufferAt reads a buffer's current contents, so a Tail over it sees the
// bytes a writer appends later.
type bufferAt struct{ b *bytes.Buffer }

func (r bufferAt) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(r.b.Bytes()).ReadAt(p, off)
}

// sampleEvents covers every event kind with representative field values.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindDayStart, Day: 59},
		{Kind: KindOrganic, Pkg: "com.app.one", N: 17, Fraud: 0.05, DAU: 40, Seconds: 120, USD: 3.25},
		{Kind: KindOrganic, Pkg: "com.idle", N: 0, Fraud: 0.05, DAU: 0, Seconds: 0, USD: 0},
		{Kind: KindClick, Offer: "fyber-0001", Worker: "w-17"},
		{Kind: KindInstall, Pkg: "com.app.one", Device: "dev-9", Fraud: 0.81},
		{Kind: KindInstallBatch, Pkg: "com.app.two", Fraud: 0.66, N: 3, Devices: []string{"a", "b", "c"}},
		{Kind: KindPostback, Offer: "fyber-0001", PostEvent: 2, Certified: true},
		{Kind: KindCertifyBatch, Offer: "ayet-0002", N: 55},
		{Kind: KindSession, Pkg: "com.app.one", N: 12, Seconds: 300},
		{Kind: KindPurchase, Pkg: "com.app.one", USD: 4.99},
		{Kind: KindSettle, Offer: "fyber-0001", N: 1, Batch: false,
			Gross: 1.23, AffCut: 0.25, UserPayout: 0.5,
			DevAcct: "dev:d", IIPAcct: "iip:f", AffAcct: "affiliate:x", UserAcct: "user:u"},
		{Kind: KindSettle, Offer: "ayet-0002", N: 40, Batch: true,
			Gross: 88, AffCut: 17, UserPayout: 33,
			DevAcct: "dev:d2", IIPAcct: "iip:a", AffAcct: "affiliate:y", UserAcct: "user:pool-a"},
		{Kind: KindEnforce, Pkg: "com.app.two", N: 420},
		{Kind: KindChart, Chart: playstore.ChartTopFree, Entries: []playstore.ChartEntry{
			{Rank: 1, Package: "com.app.one", Score: 12.5},
			{Rank: 2, Package: "com.app.two", Score: math.Float64frombits(0x3ff123456789abcd)},
		}},
		{Kind: KindDayEnd, Day: 59, CumOrganic: 1000, CumIncent: 50, CumCertified: 48, CumRevenue: 123.456},
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	for _, want := range sampleEvents() {
		var enc Encoder
		if err := enc.Event(&want); err != nil {
			t.Fatalf("%s: %v", want.Kind, err)
		}
		first := append([]byte(nil), enc.Bytes()...)

		// Decode through the reader machinery (with CRC verification).
		f, err := binenc.ScanFrame(first, maxFramePayload)
		if err != nil {
			t.Fatalf("%s: ScanFrame: %v", want.Kind, err)
		}
		if f.Size() != int64(len(first)) {
			t.Fatalf("%s: frame length %d, want %d", want.Kind, f.Size(), len(first))
		}
		var got Event
		if err := decodePayload(Kind(f.Kind), f.Payload, &got, nil, nil); err != nil {
			t.Fatalf("%s: decode: %v", want.Kind, err)
		}

		// Re-encode: byte-identical (canonical codec).
		var enc2 Encoder
		if err := enc2.Event(&got); err != nil {
			t.Fatalf("%s: re-encode: %v", want.Kind, err)
		}
		if !bytes.Equal(enc2.Bytes(), first) {
			t.Errorf("%s: encode→decode→encode not byte-identical\n  first:  %x\n  second: %x",
				want.Kind, first, enc2.Bytes())
		}
	}
}

func TestReaderRejectsCorruptFrames(t *testing.T) {
	var enc Encoder
	enc.Header(Header{Version: Version, MediatorName: "m"})
	enc.Base(Base{Store: []byte{1}, Ledger: []byte{2}, Mediator: []byte{3}})
	enc.DayStart(10)
	log := append([]byte(Magic), enc.Bytes()...)

	if _, err := NewReader(bytes.NewReader(log[:4])); err == nil {
		t.Error("truncated magic must fail")
	}
	bad := append([]byte(nil), log...)
	bad[len(bad)-6] ^= 0xff // flip a payload byte of the last frame
	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := r.Next(&ev); err == nil {
		t.Error("CRC corruption must fail Next")
	}

	// A clean log reads through to io.EOF.
	r, err = NewReader(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Next(&ev); err != nil || ev.Kind != KindDayStart || ev.Day != 10 {
		t.Fatalf("Next = %+v, %v", ev, err)
	}
	if err := r.Next(&ev); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestReaderReportsKilledRun(t *testing.T) {
	var enc Encoder
	enc.Header(Header{Version: Version, MediatorName: "m"})
	enc.Base(Base{})
	enc.DayStart(3)
	log := append([]byte(Magic), enc.Bytes()...)
	r, err := NewReader(bytes.NewReader(log[:len(log)-2])) // mid-frame kill
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := r.Next(&ev); err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
	}
}

func TestWriterTailRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Version: Version, Seed: 7, WindowStart: 1, WindowEnd: 2, MediatorName: "med", FeePerUser: 0.03},
		Base{Store: []byte("s"), Ledger: []byte("l"), Mediator: []byte("m")})
	if err != nil {
		t.Fatal(err)
	}

	// Tail over the growing buffer: before any event, no Next.
	tail := NewTail(bufferAt{&buf})
	var ev Event
	if ok, err := tail.Next(&ev); ok || err != nil {
		t.Fatalf("tail on preamble-only log = (%v, %v), want (false, nil)", ok, err)
	}

	if err := w.DayStart(5); err != nil {
		t.Fatal(err)
	}
	var unit Encoder
	encode(t, &unit,
		Event{Kind: KindInstall, Pkg: "com.x", Device: "d1", Fraud: 0.5},
		Event{Kind: KindSession, Pkg: "com.x", N: 1, Seconds: 60})
	if err := w.AppendFrames(unit.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Event(&Event{Kind: KindDayEnd, Day: 5, CumOrganic: 1, CumIncent: 1}); err != nil {
		t.Fatal(err)
	}
	if w.Offset() != int64(buf.Len()) {
		t.Fatalf("writer offset %d, file has %d bytes", w.Offset(), buf.Len())
	}

	// The same tail instance picks up the new bytes at the same offsets.
	hdr, ok, err := tail.Header()
	if err != nil || !ok || hdr.MediatorName != "med" {
		t.Fatalf("tail header = (%+v, %v, %v)", hdr, ok, err)
	}
	var kinds []Kind
	for {
		ok, err := tail.Next(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []Kind{KindDayStart, KindInstall, KindSession, KindDayEnd}
	if len(kinds) != len(want) {
		t.Fatalf("tail saw %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("tail saw %v, want %v", kinds, want)
		}
	}
	if tail.Offset() != int64(buf.Len()) {
		t.Errorf("tail offset %d, want %d", tail.Offset(), buf.Len())
	}
}

func TestResumeWriterContinuesByteStream(t *testing.T) {
	var full bytes.Buffer
	w, err := NewWriter(&full, Header{Version: Version}, Base{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DayStart(1); err != nil {
		t.Fatal(err)
	}
	mid := w.Offset()
	if err := w.Event(&Event{Kind: KindDayEnd, Day: 1, CumOrganic: 10, CumIncent: 2, CumCertified: 1, CumRevenue: 0.5}); err != nil {
		t.Fatal(err)
	}

	var rest bytes.Buffer
	rw := ResumeWriter(&rest, mid, nil, nil)
	if rw.Offset() != mid {
		t.Fatalf("resume offset %d, want %d", rw.Offset(), mid)
	}
	if err := rw.Event(&Event{Kind: KindDayEnd, Day: 1, CumOrganic: 10, CumIncent: 2, CumCertified: 1, CumRevenue: 0.5}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest.Bytes(), full.Bytes()[mid:]) {
		t.Error("resumed writer bytes differ from the live suffix")
	}
}

// InstallList returns a view of an in-memory install list.
func InstallList(list []Install) Installs {
	return NewInstalls(len(list), func(yield func(Install, error) bool) {
		for _, in := range list {
			if !yield(in, nil) {
				return
			}
		}
	})
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := &Checkpoint{
		Day: 42, Days: 12, OrganicInstalls: 100, IncentivizedInstalls: 50,
		CertifiedCompletions: 48, RevenueUSD: 1.5, LogOffset: 9999,
		Store: []byte("store"), Ledger: []byte("ledger"), Mediator: []byte("med"),
		Platforms: []NamedBlob{{Name: "fyber", Data: []byte{1}}, {Name: "rankapp", Data: []byte{2}}},
		Streams:   []NamedBlob{{Name: "engine/com.x", Data: []byte{3, 4}}},
		Installs:  InstallList([]Install{{Device: "d", App: "a", Day: 41}}),
	}
	enc := c.Encode()
	got, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("checkpoint encode→decode→encode not byte-identical")
	}
	if s, ok := got.Stream("engine/com.x"); !ok || !bytes.Equal(s, []byte{3, 4}) {
		t.Errorf("Stream lookup = (%v, %v)", s, ok)
	}
	if p, ok := got.Platform("rankapp"); !ok || !bytes.Equal(p, []byte{2}) {
		t.Errorf("Platform lookup = (%v, %v)", p, ok)
	}
	if _, ok := got.Stream("missing"); ok {
		t.Error("missing stream lookup must report false")
	}
	// Corruption must be rejected.
	if _, err := DecodeCheckpoint(enc[:len(enc)-3]); err == nil {
		t.Error("truncated checkpoint must fail")
	}
	bad := append([]byte(nil), enc...)
	bad[20] ^= 0x01
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Error("bit-flipped checkpoint must fail CRC")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/run.ckpt"
	c := &Checkpoint{Day: 3, LogOffset: 17, Store: []byte("x")}
	if err := WriteCheckpointFile(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Day != 3 || got.LogOffset != 17 || !bytes.Equal(got.Store, []byte("x")) {
		t.Errorf("checkpoint file round-trip = %+v", got)
	}
}

// TestReplayAppliesEvents drives a hand-built log through Replay and
// checks the rebuilt store, ledger, and stats (the full-engine replay
// equivalence lives in internal/sim's TestReplayMatchesLive).
func TestReplayAppliesEvents(t *testing.T) {
	day0 := dates.Date(100)

	// Base world: one developer, two apps, an empty ledger, a mediator.
	store := playstore.New(day0)
	store.SetChartSize(4)
	store.AddDeveloper(playstore.Developer{ID: "d"})
	for _, pkg := range []string{"com.a", "com.b"} {
		if err := store.Publish(playstore.Listing{Package: pkg, Title: pkg, Genre: "Casual", Developer: "d", Released: day0.AddDays(-30)}); err != nil {
			t.Fatal(err)
		}
	}
	ledger := mediator.NewLedger()
	med := mediator.New("med")

	live := func() (*playstore.Store, *mediator.Ledger) {
		s, err := playstore.DecodeSnapshot(store.EncodeSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		l := mediator.NewLedger()
		if err := l.RestoreSnapshot(ledger.EncodeSnapshot()); err != nil {
			t.Fatal(err)
		}
		return s, l
	}
	liveStore, liveLedger := live()

	var buf bytes.Buffer
	w, err := NewWriter(&buf,
		Header{Version: Version, Seed: 1, WindowStart: day0, WindowEnd: day0 + 1, MediatorName: "med", FeePerUser: 0.03},
		Base{Store: store.EncodeSnapshot(), Ledger: ledger.EncodeSnapshot(), Mediator: med.EncodeSnapshot()})
	if err != nil {
		t.Fatal(err)
	}

	r := randx.Derive(5, "replay-test")
	var cumOrganic, cumIncent, cumCertified int64
	var cumRevenue float64
	for day := day0; day <= day0+1; day++ {
		if err := w.DayStart(day); err != nil {
			t.Fatal(err)
		}
		var unit Encoder
		// Organic on com.a.
		n, dau, sec := int64(r.IntN(50)+1), int64(r.IntN(30)+1), int64(90)
		usd := r.LogNormal(0, 1)
		encode(t, &unit, Event{Kind: KindOrganic, Pkg: "com.a", N: n, Fraud: 0.05, DAU: dau, Seconds: sec, USD: usd})
		if err := liveStore.RecordInstallBatch("com.a", day, n, playstore.SourceOrganic, 0.05); err != nil {
			t.Fatal(err)
		}
		if err := liveStore.RecordSessionBatch("com.a", day, dau, sec); err != nil {
			t.Fatal(err)
		}
		if err := liveStore.RecordPurchase("com.a", playstore.Purchase{Day: day, USD: usd}); err != nil {
			t.Fatal(err)
		}
		cumOrganic += n
		cumRevenue += usd
		// One full-fidelity incentivized delivery on com.b.
		encode(t, &unit,
			Event{Kind: KindClick, Offer: "offer-1", Worker: "w1"},
			Event{Kind: KindInstall, Pkg: "com.b", Device: "w1", Fraud: 0.9})
		if err := liveStore.RecordInstall("com.b", playstore.Install{Day: day, Source: playstore.SourceReferral, FraudScore: 0.9}); err != nil {
			t.Fatal(err)
		}
		encode(t, &unit, Event{Kind: KindPostback, Offer: "offer-1", PostEvent: 0, Certified: true})
		cumCertified++
		// The live engine adds affCut+userPayout at runtime from float64
		// values; mirror that exactly (an untyped constant sum would fold
		// with a single rounding and can differ in the last bit).
		affCut, userPayout := 0.025, 0.06
		encode(t, &unit, Event{Kind: KindSettle, Offer: "offer-1", N: 1, Gross: 0.12, AffCut: affCut, UserPayout: userPayout,
			DevAcct: "dev:d", IIPAcct: "iip:x", AffAcct: "affiliate:z", UserAcct: "user:w1"})
		if err := liveLedger.PostAll([]mediator.Tx{
			{From: "dev:d", To: "iip:x", Amount: 0.12, Memo: "offer completion"},
			{From: "iip:x", To: "affiliate:z", Amount: affCut + userPayout, Memo: "affiliate share"},
			{From: "affiliate:z", To: "user:w1", Amount: userPayout, Memo: "reward redemption"},
			{From: "dev:d", To: "mediator:med", Amount: 0.03, Memo: "attribution fee"},
		}); err != nil {
			t.Fatal(err)
		}
		cumIncent++
		if err := w.AppendFrames(unit.Bytes()); err != nil {
			t.Fatal(err)
		}
		liveStore.StepDay(day)
		for _, act := range liveStore.LastEnforcementActions() {
			if err := w.Event(&Event{Kind: KindEnforce, Pkg: act.Package, N: act.Removed}); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range playstore.ChartNames {
			if err := w.Event(&Event{Kind: KindChart, Chart: name, Entries: liveStore.Chart(name)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Event(&Event{Kind: KindDayEnd, Day: day, CumOrganic: cumOrganic, CumIncent: cumIncent, CumCertified: cumCertified, CumRevenue: cumRevenue}); err != nil {
			t.Fatal(err)
		}
	}

	res, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Days != 2 || res.Stats.OrganicInstalls != cumOrganic ||
		res.Stats.IncentivizedInstalls != cumIncent || res.Stats.CertifiedCompletions != cumCertified ||
		math.Float64bits(res.Stats.RevenueUSD) != math.Float64bits(cumRevenue) {
		t.Errorf("replay stats = %+v", res.Stats)
	}
	if !bytes.Equal(res.Store.EncodeSnapshot(), liveStore.EncodeSnapshot()) {
		t.Error("replayed store differs from live store")
	}
	if !bytes.Equal(res.Ledger.EncodeSnapshot(), liveLedger.EncodeSnapshot()) {
		t.Error("replayed ledger differs from live ledger")
	}
	// The install records are the log's: a walk of it yields them, and
	// the replay counts the same records.
	lr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var installs []Install
	var ev Event
	for {
		err := lr.Next(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		installs = slices.AppendSeq(installs, ev.Installs(lr.Day()))
	}
	if len(installs) != 2 || installs[0].Device != "w1" || installs[0].App != "com.b" {
		t.Errorf("logged install records = %+v", installs)
	}
	if res.InstallRecords != int64(len(installs)) {
		t.Errorf("replay counted %d install records, the log holds %d", res.InstallRecords, len(installs))
	}

	// A tampered day-end stat line must be caught by the verification.
	tampered := append([]byte(nil), buf.Bytes()...)
	var enc2 Encoder
	enc2.DayEnd(day0+1, cumOrganic+1, cumIncent, cumCertified, cumRevenue)
	frame := enc2.Bytes()
	copy(tampered[len(tampered)-len(frame):], frame)
	if _, err := Replay(bytes.NewReader(tampered)); err == nil {
		t.Error("tampered day-end stats must fail replay verification")
	}
}
