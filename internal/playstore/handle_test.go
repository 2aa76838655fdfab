package playstore

import (
	"errors"
	"testing"

	"repro/internal/dates"
)

func handleFixture(t *testing.T) (*Store, AppHandle) {
	t.Helper()
	s := New(dates.StudyStart)
	s.AddDeveloper(Developer{ID: "d"})
	if err := s.Publish(Listing{Package: "com.h.app", Title: "H", Genre: "Puzzle", Developer: "d"}); err != nil {
		t.Fatal(err)
	}
	h, err := s.AppHandle("com.h.app")
	if err != nil {
		t.Fatal(err)
	}
	return s, h
}

func TestAppHandleResolution(t *testing.T) {
	s, h := handleFixture(t)
	if !h.Valid() || h.Package() != "com.h.app" {
		t.Fatalf("handle not resolved: valid=%v pkg=%q", h.Valid(), h.Package())
	}
	if _, err := s.AppHandle("com.missing"); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("unknown package error = %v, want ErrUnknownApp", err)
	}
	if (AppHandle{}).Valid() {
		t.Fatal("zero handle reports valid")
	}
}

// TestAppHandleMatchesStorePath drives the same event stream through the
// string-keyed store API and through a handle batch, and requires
// identical observable state — the handle path is a pure lookup/lock
// hoist, never a semantic fork.
func TestAppHandleMatchesStorePath(t *testing.T) {
	sA := New(dates.StudyStart)
	sA.AddDeveloper(Developer{ID: "d"})
	sB := New(dates.StudyStart)
	sB.AddDeveloper(Developer{ID: "d"})
	for _, s := range []*Store{sA, sB} {
		if err := s.Publish(Listing{Package: "x", Title: "X", Genre: "Puzzle", Developer: "d"}); err != nil {
			t.Fatal(err)
		}
	}
	day := dates.StudyStart

	// Store path.
	if err := sA.RecordInstall("x", Install{Day: day, Source: SourceReferral, FraudScore: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := sA.RecordInstallBatch("x", day, 10, SourceOrganic, 0.05); err != nil {
		t.Fatal(err)
	}
	if err := sA.RecordSession("x", Session{Day: day, Seconds: 120}); err != nil {
		t.Fatal(err)
	}
	if err := sA.RecordSessionBatch("x", day, 5, 60); err != nil {
		t.Fatal(err)
	}
	if err := sA.RecordPurchase("x", Purchase{Day: day, USD: 1.99}); err != nil {
		t.Fatal(err)
	}

	// Handle path, one lock for the whole (app, day) batch.
	h, err := sB.AppHandle("x")
	if err != nil {
		t.Fatal(err)
	}
	h.Lock()
	h.RecordInstallLocked(Install{Day: day, Source: SourceReferral, FraudScore: 0.4})
	h.RecordInstallBatchLocked(day, 10, SourceOrganic, 0.05)
	h.RecordSessionBatchLocked(day, 1, 120) // the store path's one RecordSession
	h.RecordSessionBatchLocked(day, 5, 60)
	h.RecordPurchaseLocked(Purchase{Day: day, USD: 1.99})
	// Zero-count batches are no-ops on both paths.
	h.RecordInstallBatchLocked(day, 0, SourceOrganic, 0.9)
	h.RecordSessionBatchLocked(day, 0, 999)
	h.Unlock()

	for _, s := range []*Store{sA, sB} {
		s.StepDay(day)
	}
	nA, _ := sA.ExactInstalls("x")
	nB, _ := sB.ExactInstalls("x")
	if nA != nB {
		t.Fatalf("exact installs diverge: store=%d handle=%d", nA, nB)
	}
	cA, err := sA.Console("x", day, day)
	if err != nil {
		t.Fatal(err)
	}
	cB, err := sB.Console("x", day, day)
	if err != nil {
		t.Fatal(err)
	}
	if len(cA) != 1 || cA[0] != cB[0] {
		t.Fatalf("console diverges: %+v vs %+v", cA, cB)
	}
	for _, name := range ChartNames {
		a, b := sA.Chart(name), sB.Chart(name)
		if len(a) != len(b) {
			t.Fatalf("chart %s sizes diverge: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("chart %s diverges at %d: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

// TestAppHandleSurvivesLaterPublishes locks the pointer stability the
// engine relies on: handles resolved before further Publish calls keep
// writing to the same row.
func TestAppHandleSurvivesLaterPublishes(t *testing.T) {
	s, h := handleFixture(t)
	for i := 0; i < 64; i++ {
		if err := s.Publish(Listing{
			Package: "com.filler." + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Title:   "F", Genre: "Puzzle", Developer: "d",
		}); err != nil {
			t.Fatal(err)
		}
	}
	h.Lock()
	h.RecordInstallBatchLocked(dates.StudyStart, 7, SourceOrganic, 0.05)
	h.Unlock()
	n, err := s.ExactInstalls("com.h.app")
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("installs through stale-looking handle = %d, want 7", n)
	}
}

// TestAppHandleRecordPathZeroAlloc pins the steady-state handle record
// path at zero allocations per event: once an app's day slot exists, a
// full install+session+purchase batch must not touch the heap.
func TestAppHandleRecordPathZeroAlloc(t *testing.T) {
	_, h := handleFixture(t)
	day := dates.StudyStart
	// Warm the dense day slot so the measured runs are steady-state.
	h.Lock()
	h.RecordInstallBatchLocked(day, 1, SourceOrganic, 0.05)
	h.Unlock()
	allocs := testing.AllocsPerRun(200, func() {
		h.Lock()
		h.RecordInstallLocked(Install{Day: day, Source: SourceReferral, FraudScore: 0.3})
		h.RecordInstallBatchLocked(day, 3, SourceOrganic, 0.05)
		h.RecordSessionBatchLocked(day, 1, 90)
		h.RecordSessionBatchLocked(day, 2, 60)
		h.RecordPurchaseLocked(Purchase{Day: day, USD: 0.99})
		h.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("steady-state handle record path allocates %.1f/op, want 0", allocs)
	}
}
