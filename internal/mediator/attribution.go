package mediator

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dates"
	"repro/internal/offers"
)

// Attribution errors.
var (
	ErrUnknownClick     = errors.New("mediator: unknown click")
	ErrUnknownOfferReq  = errors.New("mediator: offer has no registered requirement")
	ErrAlreadyCertified = errors.New("mediator: click already certified")
)

// EventType is an in-app event reported by the advertised app's mediator
// SDK.
type EventType int

const (
	// EventOpen fires on first app open after install.
	EventOpen EventType = iota
	// EventRegister fires on account creation.
	EventRegister
	// EventUsage fires when the offer's usage task completes (level
	// reached, song downloaded, ...).
	EventUsage
	// EventPurchase fires on an in-app purchase.
	EventPurchase
)

func (e EventType) String() string {
	switch e {
	case EventOpen:
		return "open"
	case EventRegister:
		return "register"
	case EventUsage:
		return "usage"
	case EventPurchase:
		return "purchase"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// RequiredEvent maps an offer type to the event that completes it.
func RequiredEvent(t offers.Type) EventType {
	switch t {
	case offers.Registration:
		return EventRegister
	case offers.Purchase:
		return EventPurchase
	case offers.Usage:
		return EventUsage
	default:
		return EventOpen
	}
}

// Click is a tracked offer click: the user tapped the offer in the wall
// and was redirected through the mediator's tracking link.
type Click struct {
	ID      string
	OfferID string
	Worker  string
	Day     dates.Date
}

// Mediator is one attribution service instance.
type Mediator struct {
	Name string
	// FeePerUser is charged to the developer per certified completion.
	FeePerUser float64

	mu       sync.Mutex
	required map[string]EventType // offerID -> completing event
	// nextClick counts each offer's clicks as of the last
	// OfferSession.SyncTo or snapshot restore; a session resolved later
	// numbers on from there. Clicks are numbered per offer rather than
	// globally: offers are delivered concurrently by the day engine, and
	// per-offer sequences keep click IDs deterministic regardless of
	// cross-offer interleaving.
	nextClick map[string]int
	certified int
}

// New returns a mediator service. The default per-user fee matches the
// paper's AppsFlyer example.
func New(name string) *Mediator {
	return &Mediator{
		Name:       name,
		FeePerUser: 0.03,
		required:   map[string]EventType{},
		nextClick:  map[string]int{},
	}
}

// RegisterOffer tells the mediator what event certifies an offer; the
// developer configures this when integrating the SDK.
func (m *Mediator) RegisterOffer(offerID string, t offers.Type) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.required[offerID] = RequiredEvent(t)
}

// CertifyBatch records n certified completions for an offer without
// minting individual clicks; the simulation engine uses it for bulk
// deliveries whose per-user detail is not needed. The offer must have a
// registered requirement.
func (m *Mediator) CertifyBatch(offerID string, n int) error {
	if n <= 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.required[offerID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownOfferReq, offerID)
	}
	m.certified += n
	return nil
}

// Certified returns the number of certified completions.
func (m *Mediator) Certified() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.certified
}
