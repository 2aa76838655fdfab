package mediator

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dates"
	"repro/internal/offers"
)

func sessionFixture(t *testing.T) (*Mediator, *OfferSession) {
	t.Helper()
	m := New("appsflyer")
	m.RegisterOffer("offer-1", offers.Registration)
	s, err := m.Session("offer-1")
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestSessionRequiresRegisteredOffer(t *testing.T) {
	m := New("appsflyer")
	if _, err := m.Session("ghost"); !errors.Is(err, ErrUnknownOfferReq) {
		t.Fatalf("session for unregistered offer: err = %v, want ErrUnknownOfferReq", err)
	}
}

// TestSessionClickIDFormat pins the lazy click-ID format: mediator name,
// offer, and a per-offer sequence starting at 1.
func TestSessionClickIDFormat(t *testing.T) {
	_, s := sessionFixture(t)
	for i, want := range []string{"appsflyer-offer-1-c000001", "appsflyer-offer-1-c000002", "appsflyer-offer-1-c000003"} {
		worker := fmt.Sprintf("w%d", i)
		click, err := s.Click(s.TrackClick(worker, dates.StudyStart))
		if err != nil {
			t.Fatal(err)
		}
		if click.ID != want {
			t.Fatalf("click %d: ID %q, want %q", i, click.ID, want)
		}
		if click.Worker != worker || click.Day != dates.StudyStart || click.OfferID != "offer-1" {
			t.Fatalf("materialized click fields wrong: %+v", click)
		}
	}
	if s.NumClicks() != 3 {
		t.Fatalf("NumClicks = %d, want 3", s.NumClicks())
	}
}

// TestSessionNumberingContinuesAfterMediatorClicks pins the collision
// guard: a session resolved for an offer whose earlier clicks the
// mediator already counts (an earlier session synced into it) continues
// that numbering instead of restarting at 1.
func TestSessionNumberingContinuesAfterMediatorClicks(t *testing.T) {
	m, first := sessionFixture(t)
	first.TrackClick("w", dates.StudyStart)
	first.SyncTo(m)
	s, err := m.Session("offer-1")
	if err != nil {
		t.Fatal(err)
	}
	click, err := s.Click(s.TrackClick("w2", dates.StudyStart))
	if err != nil {
		t.Fatal(err)
	}
	if want := "appsflyer-offer-1-c000002"; click.ID != want {
		t.Fatalf("session click ID = %q, want %q", click.ID, want)
	}
}

func TestSessionPostbackCertifiesOnce(t *testing.T) {
	m, s := sessionFixture(t)
	ref := s.TrackClick("w", dates.StudyStart)

	// Non-completing event: no certification, no error.
	ok, err := s.Postback(ref, EventOpen)
	if err != nil || ok {
		t.Fatalf("open postback = (%v, %v), want (false, nil)", ok, err)
	}
	// Completing event certifies exactly once.
	ok, err = s.Postback(ref, EventRegister)
	if err != nil || !ok {
		t.Fatalf("register postback = (%v, %v), want (true, nil)", ok, err)
	}
	if _, err := s.Postback(ref, EventRegister); !errors.Is(err, ErrAlreadyCertified) {
		t.Fatalf("double certify err = %v, want ErrAlreadyCertified", err)
	}
	// Session counts merge into the global total only via AddCertified.
	if m.Certified() != 0 {
		t.Fatalf("certified before merge = %d, want 0", m.Certified())
	}
	m.AddCertified(1)
	m.AddCertified(0)
	m.AddCertified(-5)
	if m.Certified() != 1 {
		t.Fatalf("certified after merge = %d, want 1", m.Certified())
	}
}

func TestSessionPostbackRejectsForeignAndUnknownRefs(t *testing.T) {
	m, s := sessionFixture(t)
	m.RegisterOffer("offer-2", offers.Registration)
	other, err := m.Session("offer-2")
	if err != nil {
		t.Fatal(err)
	}
	foreign := other.TrackClick("w", dates.StudyStart)
	if _, err := s.Postback(foreign, EventRegister); !errors.Is(err, ErrForeignClick) {
		t.Fatalf("foreign ref err = %v, want ErrForeignClick", err)
	}
	if _, err := s.Click(foreign); !errors.Is(err, ErrForeignClick) {
		t.Fatalf("foreign ref Click err = %v, want ErrForeignClick", err)
	}
	if _, err := s.Postback(ClickRef{Offer: "offer-1", Index: 99}, EventRegister); !errors.Is(err, ErrUnknownClick) {
		t.Fatalf("out-of-range ref err = %v, want ErrUnknownClick", err)
	}
	if _, err := s.Postback(ClickRef{Offer: "offer-1", Index: -1}, EventRegister); !errors.Is(err, ErrUnknownClick) {
		t.Fatalf("negative ref err = %v, want ErrUnknownClick", err)
	}
}

// TestSessionTrackClickZeroAllocSteadyState pins the hot-path contract:
// minting a click through a warmed session performs at most the amortized
// slice growth — no ID formatting, no map insertion, no per-click boxing.
func TestSessionTrackClickZeroAllocSteadyState(t *testing.T) {
	_, s := sessionFixture(t)
	// Pre-size the click slice so measured runs never hit slice growth
	// (growth is real but amortized; it would only add noise here).
	s.clicks = make([]sessionClick, 0, 8192)
	base := s.NumClicks()
	allocs := testing.AllocsPerRun(1000, func() {
		ref := s.TrackClick("w", dates.StudyStart)
		if ok, err := s.Postback(ref, EventRegister); err != nil || !ok {
			t.Fatalf("postback = (%v, %v)", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state track+postback allocates %.1f/op, want 0", allocs)
	}
	if s.NumClicks() <= base {
		t.Fatal("clicks did not accumulate")
	}
}
