package mediator

import (
	"errors"
	"fmt"

	"repro/internal/dates"
)

// ErrForeignClick rejects a ClickRef presented to a session of a different
// offer.
var ErrForeignClick = errors.New("mediator: click ref belongs to a different offer")

// ClickRef addresses a tracked click without materializing its string ID:
// the offer it belongs to and its 0-based position in that offer's click
// sequence. The string Click.ID ("<mediator>-<offer>-c%06d", numbered from
// 1) is only built on demand by OfferSession.Click, so the delivery hot
// path never runs fmt.Sprintf.
type ClickRef struct {
	Offer string
	Index int
}

// sessionClick is the slice-backed click state addressed by a ClickRef.
type sessionClick struct {
	worker    string
	day       dates.Date
	certified bool
}

// OfferSession is a per-offer click session: the offer's completion
// requirement and click-ID numbering resolved once, with clicks stored as
// slice-backed states instead of entries in a mediator-wide map.
//
// A session is NOT safe for concurrent use and deliberately takes no lock:
// the day engine owns each offer's deliveries on exactly one goroutine per
// phase (campaigns are partitioned by developer group), so per-event
// locking would buy nothing. Certified counts accumulated through a
// session reach the mediator's global total via AddCertified at the
// engine's day barrier. The session's numbering starts after the clicks
// the mediator already counts for the offer (SyncTo, RestoreSnapshot), so
// IDs never collide with those of an earlier session or of the run a
// checkpoint resumes. Once a session exists, it must be the offer's only
// click source.
type OfferSession struct {
	name     string // mediator name, for lazy click-ID materialization
	offerID  string
	required EventType
	base     int // clicks the offer had when the session was resolved
	clicks   []sessionClick
}

// Session resolves a per-offer click session. The offer must have a
// registered completion requirement.
func (m *Mediator) Session(offerID string) (*OfferSession, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	req, ok := m.required[offerID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownOfferReq, offerID)
	}
	return &OfferSession{
		name:     m.Name,
		offerID:  offerID,
		required: req,
		base:     m.nextClick[offerID],
	}, nil
}

// OfferID returns the offer the session tracks.
func (s *OfferSession) OfferID() string { return s.offerID }

// NumClicks returns how many clicks the session has minted.
func (s *OfferSession) NumClicks() int { return len(s.clicks) }

// TrackClick mints a tracking click for a user starting the offer. Index n
// of the returned ref is click ID suffix c%06d with base+n+1.
func (s *OfferSession) TrackClick(worker string, day dates.Date) ClickRef {
	s.clicks = append(s.clicks, sessionClick{worker: worker, day: day})
	return ClickRef{Offer: s.offerID, Index: len(s.clicks) - 1}
}

// Postback receives an SDK event for a click. It reports whether this
// event certified the completion: true exactly once per click, when the
// event matches the offer's completing requirement. Non-completing events
// return (false, nil). Callers that need the click itself materialize it
// lazily (Click).
func (s *OfferSession) Postback(ref ClickRef, event EventType) (bool, error) {
	st, err := s.state(ref)
	if err != nil {
		return false, err
	}
	if event != s.required {
		return false, nil
	}
	if st.certified {
		return false, fmt.Errorf("%w: %s", ErrAlreadyCertified, s.clickID(ref.Index))
	}
	st.certified = true
	return true, nil
}

// Click materializes the full Click — including its string ID — for a ref;
// only logging and reporting paths pay the Sprintf.
func (s *OfferSession) Click(ref ClickRef) (Click, error) {
	st, err := s.state(ref)
	if err != nil {
		return Click{}, err
	}
	return Click{
		ID:      s.clickID(ref.Index),
		OfferID: s.offerID,
		Worker:  st.worker,
		Day:     st.day,
	}, nil
}

// state validates a ref and returns its mutable click state.
func (s *OfferSession) state(ref ClickRef) (*sessionClick, error) {
	if ref.Offer != s.offerID {
		return nil, fmt.Errorf("%w: %s vs session %s", ErrForeignClick, ref.Offer, s.offerID)
	}
	if ref.Index < 0 || ref.Index >= len(s.clicks) {
		return nil, fmt.Errorf("%w: %s index %d", ErrUnknownClick, s.offerID, ref.Index)
	}
	return &s.clicks[ref.Index], nil
}

// clickID builds the string ID for the click at idx,
// "<mediator>-<offer>-c%06d", numbered on after the clicks the offer had
// when the session was resolved.
func (s *OfferSession) clickID(idx int) string {
	return fmt.Sprintf("%s-%s-c%06d", s.name, s.offerID, s.base+idx+1)
}

// AddCertified merges externally accumulated certified completions into
// the mediator's total. The day engine counts session certifications in
// per-unit sinks and folds them in here at each day barrier, beside the
// bulk completions CertifyBatch counts.
func (m *Mediator) AddCertified(n int) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.certified += n
}
