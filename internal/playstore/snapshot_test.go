package playstore

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dates"
	"repro/internal/randx"
)

// buildSnapshotFixture assembles a store with developers, apps, daily
// activity, stepped charts, and an enforcer, so the snapshot covers every
// section of the wire format.
func buildSnapshotFixture(t testing.TB) *Store {
	t.Helper()
	day0 := dates.StudyStart
	s := New(day0)
	s.SetChartSize(5)
	s.SetEnforcer(NewEnforcer(randx.Derive(7, "enforce"), 0.8))
	s.AddDeveloper(Developer{ID: "d1", Name: "One", Country: "US", Website: "https://one.example", Email: "a@one.example"})
	s.AddDeveloper(Developer{ID: "d2", Name: "Two", Public: true})
	apps := []Listing{
		{Package: "com.a", Title: "A", Genre: "Puzzle", Developer: "d1", Released: day0.AddDays(-100)},
		{Package: "com.b", Title: "B", Genre: "Tools", Developer: "d2", Released: day0.AddDays(-10)},
		{Package: "com.idle", Title: "I", Genre: "Card", Developer: "d1", Released: day0.AddDays(-50)},
	}
	for _, l := range apps {
		if err := s.Publish(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SeedInstalls("com.a", 12345); err != nil {
		t.Fatal(err)
	}
	r := randx.Derive(3, "snapshot-fixture")
	for d := day0; d < day0.AddDays(9); d++ {
		if err := s.RecordInstallBatch("com.a", d, int64(5+r.IntN(50)), SourceOrganic, 0.05); err != nil {
			t.Fatal(err)
		}
		if err := s.RecordInstallBatch("com.b", d, int64(30+r.IntN(80)), SourceReferral, 0.9); err != nil {
			t.Fatal(err)
		}
		if err := s.RecordSessionBatch("com.a", d, int64(1+r.IntN(20)), 120); err != nil {
			t.Fatal(err)
		}
		if err := s.RecordPurchase("com.b", Purchase{Day: d, USD: r.LogNormal(1, 0.5)}); err != nil {
			t.Fatal(err)
		}
		s.StepDay(d)
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := buildSnapshotFixture(t)
	snap := s.EncodeSnapshot()
	restored, err := DecodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical encoding: re-encoding the decoded store reproduces the
	// identical bytes, which is how the replay equivalence tests compare
	// whole stores.
	if !bytes.Equal(restored.EncodeSnapshot(), snap) {
		t.Fatal("snapshot encode→decode→encode is not byte-identical")
	}
	if restored.Today() != s.Today() {
		t.Errorf("today = %v, want %v", restored.Today(), s.Today())
	}
	if got, want := restored.Enforcer().Detections(), s.Enforcer().Detections(); got != want {
		t.Errorf("enforcer detections = %d, want %d", got, want)
	}
}

// TestSnapshotRestoredStoreBehavesIdentically drives a restored store and
// the original through identical further activity and verifies they stay
// byte-identical — the property resume relies on.
func TestSnapshotRestoredStoreBehavesIdentically(t *testing.T) {
	s := buildSnapshotFixture(t)
	restored, err := DecodeSnapshot(s.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	day := s.Today().AddDays(1)
	for _, st := range []*Store{s, restored} {
		r := randx.Derive(11, "post-restore")
		for d := day; d < day.AddDays(5); d++ {
			if err := st.RecordInstallBatch("com.b", d, int64(40+r.IntN(30)), SourceReferral, 0.9); err != nil {
				t.Fatal(err)
			}
			if err := st.RecordPurchase("com.a", Purchase{Day: d, USD: r.LogNormal(0, 1)}); err != nil {
				t.Fatal(err)
			}
			st.StepDay(d)
		}
	}
	if !bytes.Equal(s.EncodeSnapshot(), restored.EncodeSnapshot()) {
		t.Fatal("restored store diverged from original under identical activity")
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	s := buildSnapshotFixture(t)
	snap := s.EncodeSnapshot()
	if _, err := DecodeSnapshot(snap[:len(snap)/2]); err == nil {
		t.Error("truncated snapshot must not decode")
	}
	if _, err := DecodeSnapshot(nil); err == nil {
		t.Error("empty snapshot must not decode")
	}
	bad := append([]byte(nil), snap...)
	bad[0] = 99 // unsupported version
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Error("unknown snapshot version must not decode")
	}
}

// TestSnapshotDecodeRejectsInconsistentWindow checks that decoding
// recomputes every app's rolling window from its own days: a snapshot
// whose wire sums differ in one varint, or whose anchor precedes the app's
// last day, is refused instead of seeding wrong chart scores.
func TestSnapshotDecodeRejectsInconsistentWindow(t *testing.T) {
	s := buildSnapshotFixture(t)
	snap := s.EncodeSnapshot()
	if _, err := DecodeSnapshot(snap); err != nil {
		t.Fatalf("consistent snapshot: %v", err)
	}

	a := appOf(t, s, "com.b")
	a.win.sessions++ // com.b records no sessions: varint 0 becomes 1
	bad := s.EncodeSnapshot()
	a.win.sessions--
	if len(bad) != len(snap) {
		t.Fatalf("corrupted snapshot is %d bytes, want %d", len(bad), len(snap))
	}
	diff := 0
	for i := range snap {
		if bad[i] != snap[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption changed %d bytes, want 1", diff)
	}
	if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "window sums") {
		t.Errorf("snapshot with a wrong window sum: err = %v, want a window-sum error", err)
	}

	a.winEnd--
	bad = s.EncodeSnapshot()
	a.winEnd++
	if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "window anchor") {
		t.Errorf("snapshot with an anchor before the last day: err = %v, want a window-anchor error", err)
	}
}

// TestSnapshotDecodeRejectsDAUMismatch checks that decoding refuses a
// snapshot whose DAU differs from its sessions, which every store writer
// keeps equal: one changed per-day DAU varint, or one changed window DAU
// varint, is refused with an error naming the app.
func TestSnapshotDecodeRejectsDAUMismatch(t *testing.T) {
	s := buildSnapshotFixture(t)
	snap := s.EncodeSnapshot()
	enc := binenc.NewEnc(0)
	encodeApp(enc, appOf(t, s, "com.a"))
	rec := enc.Bytes()
	at := bytes.Index(snap, rec)
	if at < 0 {
		t.Fatal("app record not found in the snapshot")
	}
	winDAU, lastDAU := dauOffsets(t, rec)
	for _, c := range []struct {
		what string
		off  int
	}{{"window", winDAU}, {"last day", lastDAU}} {
		bad := bumpVarint(t, snap, at+c.off)
		_, err := DecodeSnapshot(bad)
		if err == nil || !strings.Contains(err.Error(), "com.a") || !strings.Contains(err.Error(), "DAU") {
			t.Errorf("snapshot with a changed %s DAU: err = %v, want a DAU error naming com.a", c.what, err)
		}
	}
}

// dauOffsets walks one app record of the snapshot wire format and returns
// the offsets of its window DAU varint and of its last day's DAU varint.
func dauOffsets(t *testing.T, rec []byte) (win, last int) {
	t.Helper()
	dec := binenc.NewDec(rec)
	for range 4 { // package, title, genre, developer
		dec.Str()
	}
	for range 8 { // released, installs, base, anchor, four window sums
		dec.Varint()
	}
	win = len(rec) - dec.Remaining()
	dec.Varint()
	n := dec.Uvarint()
	if n == 0 {
		t.Fatal("app record has no days")
	}
	for range n {
		dec.Varint() // organic
		dec.Varint() // referral
		dec.Varint() // removed
		dec.F64()    // fraud sum
		dec.Varint() // sessions
		dec.Varint() // session seconds
		dec.F64()    // revenue
		last = len(rec) - dec.Remaining()
		dec.Varint() // DAU
	}
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
	return win, last
}

// bumpVarint returns a copy of b with the varint at off incremented.
func bumpVarint(t *testing.T, b []byte, off int) []byte {
	t.Helper()
	dec := binenc.NewDec(b[off:])
	v := dec.Varint()
	if dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	out := binary.AppendVarint(append([]byte(nil), b[:off]...), v+1)
	return append(out, b[len(b)-dec.Remaining():]...)
}

// FuzzStoreDecodeSnapshot feeds arbitrary bytes to the snapshot decoder,
// which rebuilds and checks derived window state from the columns it
// reads. Whatever decodes must re-encode to a snapshot that decodes back
// to the identical bytes.
func FuzzStoreDecodeSnapshot(f *testing.F) {
	f.Add(buildSnapshotFixture(f).EncodeSnapshot())
	f.Add(buildPairFixture(f).EncodeSnapshot())
	f.Add(New(dates.StudyStart).EncodeSnapshot())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		snap := s.EncodeSnapshot()
		again, err := DecodeSnapshot(snap)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(again.EncodeSnapshot(), snap) {
			t.Fatal("snapshot encode→decode→encode is not byte-identical")
		}
	})
}

func TestEnforcerStateRoundTrip(t *testing.T) {
	e := NewEnforcer(randx.Derive(5, "enf"), 0.7)
	e.detections.Store(9)
	got, err := DecodeEnforcer(e.EncodeState())
	if err != nil {
		t.Fatal(err)
	}
	if got.Sensitivity != e.Sensitivity || got.seed != e.seed || got.Detections() != 9 {
		t.Errorf("enforcer state did not round-trip: %+v vs %+v", got, e)
	}
	if !bytes.Equal(got.EncodeState(), e.EncodeState()) {
		t.Error("enforcer encode→decode→encode is not byte-identical")
	}
}
