// Package iip models incentivized install platforms (IIPs): the vetted and
// unvetted services of the paper's Table 1, their developer review
// processes, campaign management, install pacing, the per-completion money
// split of Figure 1, and an HTTP offer-wall server that affiliate apps
// integrate (and that the monitoring pipeline's proxy intercepts).
package iip

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/dates"
	"repro/internal/offers"
)

// Registration and campaign errors.
var (
	ErrDocsRequired        = errors.New("iip: vetted platform requires tax ID and bank account")
	ErrDepositTooSmall     = errors.New("iip: deposit below platform minimum")
	ErrUnknownDeveloper    = errors.New("iip: unknown developer account")
	ErrInsufficientBalance = errors.New("iip: insufficient balance for campaign")
	ErrUnknownOffer        = errors.New("iip: unknown offer")
	ErrCampaignComplete    = errors.New("iip: campaign already delivered its target")
	ErrCampaignInactive    = errors.New("iip: campaign not active on this day")
)

// Documentation is the paperwork a vetted IIP demands before activating a
// developer account.
type Documentation struct {
	TaxID       string
	BankAccount string
}

// Complete reports whether the documentation satisfies a vetted review.
func (d Documentation) Complete() bool {
	return d.TaxID != "" && d.BankAccount != ""
}

// Platform is one incentivized install platform.
type Platform struct {
	Name    string
	HomeURL string
	// Vetted platforms run a stringent developer review (documentation +
	// large upfront deposit); unvetted platforms take anyone with $20.
	Vetted bool
	// MinDepositUSD is the smallest accepted first deposit.
	MinDepositUSD float64
	// FeeFraction is the share of each developer payment the IIP keeps.
	FeeFraction float64
	// AffiliateFraction is the share of the remainder kept by the
	// affiliate app before the user payout.
	AffiliateFraction float64
	// PacePerHour is the install delivery rate for a running campaign
	// (Fyber delivers 500 installs within 2 hours; RankApp needs > 24h).
	PacePerHour float64
	// ServiceClaims is marketing copy from the platform's website; the
	// Figure 2 probe scans it for app-store-manipulation claims.
	ServiceClaims []string

	mu        sync.Mutex
	devs      map[string]*developerAccount
	campaigns map[string]*Campaign
	// wall lists every campaign in OfferID order, the order a wall
	// serves offers in. Launch and restore append to it; an append that
	// breaks the order (an ID past 9999 sorts before earlier ones) marks it
	// unsorted, and the next wall read sorts it.
	wall         []*Campaign
	wallUnsorted bool
	nextID       int
}

type developerAccount struct {
	id      string
	docs    Documentation
	balance float64
}

// Campaign is a purchased incentivized install campaign.
type Campaign struct {
	OfferID   string
	Spec      CampaignSpec
	Delivered int
	// Stopped is set when the developer halts the campaign early or the
	// balance runs out.
	Stopped bool
}

// CampaignSpec describes a campaign purchase.
type CampaignSpec struct {
	Developer   string
	AppPackage  string
	Description string
	// Type and Arbitrage are the ground-truth labels carried through to
	// the generated offers for classifier scoring.
	Type      offers.Type
	Arbitrage bool
	// UserPayoutUSD is the user-facing reward for completing the offer.
	UserPayoutUSD float64
	// Target is the number of completions purchased.
	Target int
	// Window is the period the offer stays on the wall.
	Window dates.Range
	// Countries the offer targets (empty = all).
	Countries []string
}

// GrossCostPerInstall is what the developer pays per completion so that,
// after the IIP and affiliate cuts, the user receives UserPayoutUSD.
func (p *Platform) GrossCostPerInstall(userPayout float64) float64 {
	return userPayout / ((1 - p.FeeFraction) * (1 - p.AffiliateFraction))
}

// DailyPace is the platform's delivery cap per campaign per day, derived
// from its hourly install pacing. The day engine hands it to each unit's
// adversary strategy as the hard ceiling on a day's quota: strategies may
// pace below it (slow-drip) or save demand up to it (burst), but the
// platform's infrastructure bounds what any single day can deliver.
func (p *Platform) DailyPace() int {
	return int(p.PacePerHour * 24)
}

// RegisterDeveloper opens a developer account, enforcing the platform's
// review process.
func (p *Platform) RegisterDeveloper(id string, docs Documentation) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.Vetted && !docs.Complete() {
		return fmt.Errorf("%w (%s)", ErrDocsRequired, p.Name)
	}
	if p.devs == nil {
		p.devs = map[string]*developerAccount{}
	}
	p.devs[id] = &developerAccount{id: id, docs: docs}
	return nil
}

// Deposit adds campaign funds, enforcing the platform minimum on the first
// deposit.
func (p *Platform) Deposit(devID string, usd float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.devs[devID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDeveloper, devID)
	}
	if d.balance == 0 && usd < p.MinDepositUSD {
		return fmt.Errorf("%w: %s requires >= $%.2f", ErrDepositTooSmall, p.Name, p.MinDepositUSD)
	}
	d.balance += usd
	return nil
}

// Balance returns a developer's remaining campaign funds.
func (p *Platform) Balance(devID string) (float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.devs[devID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownDeveloper, devID)
	}
	return d.balance, nil
}

// LaunchCampaign validates funding and puts the offer on the wall.
func (p *Platform) LaunchCampaign(spec CampaignSpec) (*Campaign, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.devs[spec.Developer]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDeveloper, spec.Developer)
	}
	cost := p.GrossCostPerInstall(spec.UserPayoutUSD) * float64(spec.Target)
	if d.balance < cost {
		return nil, fmt.Errorf("%w: need $%.2f, have $%.2f", ErrInsufficientBalance, cost, d.balance)
	}
	p.nextID++
	c := &Campaign{
		OfferID: fmt.Sprintf("%s-%04d", p.Name, p.nextID),
		Spec:    spec,
	}
	if p.campaigns == nil {
		p.campaigns = map[string]*Campaign{}
	}
	p.campaigns[c.OfferID] = c
	p.appendWallLocked(c)
	return c, nil
}

// appendWallLocked adds a new campaign to the wall index. Callers hold
// p.mu.
func (p *Platform) appendWallLocked(c *Campaign) {
	if n := len(p.wall); n > 0 && c.OfferID < p.wall[n-1].OfferID {
		p.wallUnsorted = true
	}
	p.wall = append(p.wall, c)
}

// sortedWallLocked returns the wall index in OfferID order. Callers hold
// p.mu.
func (p *Platform) sortedWallLocked() []*Campaign {
	if p.wallUnsorted {
		slices.SortFunc(p.wall, func(a, b *Campaign) int { return strings.Compare(a.OfferID, b.OfferID) })
		p.wallUnsorted = false
	}
	return p.wall
}

// WallOffer is the offer-wall view of a campaign: what the affiliate app's
// users (and the monitoring proxy) see.
type WallOffer struct {
	OfferID     string  `json:"offer_id"`
	IIP         string  `json:"network"`
	AppPackage  string  `json:"app_package"`
	StoreURL    string  `json:"store_url"`
	Description string  `json:"description"`
	PayoutUSD   float64 `json:"payout_usd"`
	// Truth fields ride along for evaluation only; a real wall would not
	// carry them. They are stripped by the wire encoder in Server.
	Truth          offers.Type `json:"-"`
	TruthArbitrage bool        `json:"-"`
}

// ActiveOffers lists offers live on the wall for a day and country, in
// OfferID order.
func (p *Platform) ActiveOffers(day dates.Date, country string) []WallOffer {
	return p.wallPage(day, country, 0, 0)
}

// wallPage lists the offers of ActiveOffers(day, country) from index
// offset on, at most limit of them (0 means no limit). It walks the wall
// index and builds only the offers it returns.
func (p *Platform) wallPage(day dates.Date, country string, offset, limit int) []WallOffer {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []WallOffer
	for _, c := range p.sortedWallLocked() {
		if limit > 0 && len(out) == limit {
			break
		}
		if !p.liveLocked(c, day) {
			continue
		}
		if len(c.Spec.Countries) > 0 && !containsString(c.Spec.Countries, country) {
			continue
		}
		if offset > 0 {
			offset--
			continue
		}
		out = append(out, WallOffer{
			OfferID:        c.OfferID,
			IIP:            p.Name,
			AppPackage:     c.Spec.AppPackage,
			StoreURL:       "https://play.google.com/store/apps/details?id=" + c.Spec.AppPackage,
			Description:    c.Spec.Description,
			PayoutUSD:      c.Spec.UserPayoutUSD,
			Truth:          c.Spec.Type,
			TruthArbitrage: c.Spec.Arbitrage,
		})
	}
	return out
}

func (p *Platform) liveLocked(c *Campaign, day dates.Date) bool {
	return !c.Stopped && c.Delivered < c.Spec.Target && c.Spec.Window.Contains(day)
}

// Disbursement is the per-completion money split of Figure 1.
type Disbursement struct {
	Gross        float64 // debited from the developer
	IIPCut       float64
	AffiliateCut float64
	UserPayout   float64
}

// RecordCompletion settles one certified offer completion: it debits the
// developer and returns the split. The affiliate and user legs are paid
// out by the mediator's ledger.
func (p *Platform) RecordCompletion(offerID string, day dates.Date) (Disbursement, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.campaigns[offerID]
	if !ok {
		return Disbursement{}, fmt.Errorf("%w: %s", ErrUnknownOffer, offerID)
	}
	return p.settleOne(c, p.devs[c.Spec.Developer], p.GrossCostPerInstall(c.Spec.UserPayoutUSD), day)
}

// settleOne applies one completion to a campaign and its developer
// account. The caller either holds p.mu or owns the campaign exclusively
// under the CampaignHandle contract; both entry points share this body so
// the money split and stop conditions cannot drift between them.
func (p *Platform) settleOne(c *Campaign, d *developerAccount, gross float64, day dates.Date) (Disbursement, error) {
	if c.Delivered >= c.Spec.Target {
		return Disbursement{}, fmt.Errorf("%w: %s", ErrCampaignComplete, c.OfferID)
	}
	if !p.liveLocked(c, day) {
		return Disbursement{}, fmt.Errorf("%w: %s on %s", ErrCampaignInactive, c.OfferID, day)
	}
	if d.balance < gross {
		c.Stopped = true
		return Disbursement{}, fmt.Errorf("%w: %s", ErrInsufficientBalance, c.Spec.Developer)
	}
	d.balance -= gross
	c.Delivered++
	iipCut := gross * p.FeeFraction
	affCut := (gross - iipCut) * p.AffiliateFraction
	return Disbursement{
		Gross:        gross,
		IIPCut:       iipCut,
		AffiliateCut: affCut,
		UserPayout:   gross - iipCut - affCut,
	}, nil
}

// RecordCompletions settles up to n completions at once, returning the
// aggregate disbursement and the number actually settled (less than n when
// the campaign's remaining target or the developer's balance runs out).
// The per-completion split is identical to RecordCompletion.
func (p *Platform) RecordCompletions(offerID string, day dates.Date, n int) (Disbursement, int, error) {
	if n <= 0 {
		return Disbursement{}, 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.campaigns[offerID]
	if !ok {
		return Disbursement{}, 0, fmt.Errorf("%w: %s", ErrUnknownOffer, offerID)
	}
	return p.settleBatch(c, p.devs[c.Spec.Developer], p.GrossCostPerInstall(c.Spec.UserPayoutUSD), day, n)
}

// settleBatch applies up to n completions; same sharing contract as
// settleOne. n must be positive.
func (p *Platform) settleBatch(c *Campaign, d *developerAccount, gross float64, day dates.Date, n int) (Disbursement, int, error) {
	if !p.liveLocked(c, day) {
		return Disbursement{}, 0, fmt.Errorf("%w: %s on %s", ErrCampaignInactive, c.OfferID, day)
	}
	if remaining := c.Spec.Target - c.Delivered; n > remaining {
		n = remaining
	}
	if affordable := int(d.balance / gross); n > affordable {
		n = affordable
		c.Stopped = true
	}
	if n <= 0 {
		return Disbursement{}, 0, nil
	}
	total := gross * float64(n)
	d.balance -= total
	c.Delivered += n
	iipCut := total * p.FeeFraction
	affCut := (total - iipCut) * p.AffiliateFraction
	return Disbursement{
		Gross:        total,
		IIPCut:       iipCut,
		AffiliateCut: affCut,
		UserPayout:   total - iipCut - affCut,
	}, n, nil
}

// Campaign returns a snapshot of a campaign's state.
func (p *Platform) Campaign(offerID string) (Campaign, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.campaigns[offerID]
	if !ok {
		return Campaign{}, fmt.Errorf("%w: %s", ErrUnknownOffer, offerID)
	}
	return *c, nil
}

// Campaigns returns snapshots of all campaigns.
func (p *Platform) Campaigns() []Campaign {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Campaign, 0, len(p.campaigns))
	for _, c := range p.campaigns {
		out = append(out, *c)
	}
	return out
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
