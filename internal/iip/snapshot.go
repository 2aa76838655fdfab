package iip

import (
	"fmt"
	"sort"

	"repro/internal/binenc"
	"repro/internal/dates"
	"repro/internal/offers"
)

// platformSnapshotVersion guards the platform snapshot wire format.
const platformSnapshotVersion = 1

// EncodeSnapshot serializes the platform's run state: every developer
// account (documentation and bit-exact balance), every campaign (full
// spec plus delivery progress), and the campaign ID counter. The snapshot
// is self-contained — RestoreSnapshot updates accounts and campaigns the
// platform already has and recreates ones it does not, so state created
// outside the deterministic world build (e.g. the honey-app experiment's
// campaigns) survives a checkpoint/resume cycle.
func (p *Platform) EncodeSnapshot() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	enc := binenc.NewEnc(1 << 10)
	enc.U8(platformSnapshotVersion)
	enc.Varint(int64(p.nextID))

	devs := make([]string, 0, len(p.devs))
	for id := range p.devs {
		devs = append(devs, id)
	}
	sort.Strings(devs)
	enc.Uvarint(uint64(len(devs)))
	for _, id := range devs {
		d := p.devs[id]
		enc.Str(id)
		enc.Str(d.docs.TaxID)
		enc.Str(d.docs.BankAccount)
		enc.F64(d.balance)
	}

	wall := p.sortedWallLocked()
	enc.Uvarint(uint64(len(wall)))
	for _, c := range wall {
		enc.Str(c.OfferID)
		enc.Str(c.Spec.Developer)
		enc.Str(c.Spec.AppPackage)
		enc.Str(c.Spec.Description)
		enc.U8(uint8(c.Spec.Type))
		enc.Bool(c.Spec.Arbitrage)
		enc.F64(c.Spec.UserPayoutUSD)
		enc.Varint(int64(c.Spec.Target))
		enc.Varint(int64(c.Spec.Window.Start))
		enc.Varint(int64(c.Spec.Window.End))
		enc.Uvarint(uint64(len(c.Spec.Countries)))
		for _, country := range c.Spec.Countries {
			enc.Str(country)
		}
		enc.Varint(int64(c.Delivered))
		enc.Bool(c.Stopped)
	}
	return enc.Bytes()
}

// RestoreSnapshot applies EncodeSnapshot state: existing developer
// accounts and campaigns are overwritten with the snapshot's values, and
// missing ones are recreated from the embedded specs.
func (p *Platform) RestoreSnapshot(data []byte) error {
	dec := binenc.NewDec(data)
	if v := dec.U8(); dec.Err() == nil && v != platformSnapshotVersion {
		return fmt.Errorf("iip: unsupported snapshot version %d", v)
	}
	nextID := int(dec.Varint())

	type devState struct {
		id   string
		docs Documentation
		bal  float64
	}
	nDevs := dec.Uvarint()
	// Counts beyond what the remaining input could possibly hold are
	// corruption — reject them before allocating.
	if dec.Err() == nil && nDevs > uint64(dec.Remaining()) {
		return fmt.Errorf("iip: decoding %s snapshot: %w", p.Name, binenc.ErrTooLong)
	}
	devs := make([]devState, 0, nDevs)
	for i := uint64(0); i < nDevs && dec.Err() == nil; i++ {
		devs = append(devs, devState{
			id:   dec.Str(),
			docs: Documentation{TaxID: dec.Str(), BankAccount: dec.Str()},
			bal:  dec.F64(),
		})
	}

	nCamps := dec.Uvarint()
	if dec.Err() == nil && nCamps > uint64(dec.Remaining()) {
		return fmt.Errorf("iip: decoding %s snapshot: %w", p.Name, binenc.ErrTooLong)
	}
	camps := make([]*Campaign, 0, nCamps)
	for i := uint64(0); i < nCamps && dec.Err() == nil; i++ {
		c := &Campaign{OfferID: dec.Str()}
		c.Spec = CampaignSpec{
			Developer:     dec.Str(),
			AppPackage:    dec.Str(),
			Description:   dec.Str(),
			Type:          offers.Type(dec.U8()),
			Arbitrage:     dec.Bool(),
			UserPayoutUSD: dec.F64(),
			Target:        int(dec.Varint()),
			Window:        dates.Range{Start: dates.Date(dec.Varint()), End: dates.Date(dec.Varint())},
		}
		nCountries := dec.Uvarint()
		if dec.Err() == nil && nCountries > uint64(dec.Remaining()) {
			return fmt.Errorf("iip: decoding %s snapshot: %w", p.Name, binenc.ErrTooLong)
		}
		for j := uint64(0); j < nCountries && dec.Err() == nil; j++ {
			c.Spec.Countries = append(c.Spec.Countries, dec.Str())
		}
		c.Delivered = int(dec.Varint())
		c.Stopped = dec.Bool()
		camps = append(camps, c)
	}
	if err := dec.Done(); err != nil {
		return fmt.Errorf("iip: decoding %s snapshot: %w", p.Name, err)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.devs == nil {
		p.devs = map[string]*developerAccount{}
	}
	for _, d := range devs {
		acct, ok := p.devs[d.id]
		if !ok {
			acct = &developerAccount{id: d.id}
			p.devs[d.id] = acct
		}
		acct.docs = d.docs
		acct.balance = d.bal
	}
	if p.campaigns == nil {
		p.campaigns = map[string]*Campaign{}
	}
	for _, c := range camps {
		if _, ok := p.devs[c.Spec.Developer]; !ok {
			return fmt.Errorf("iip: snapshot campaign %s references %w: %s", c.OfferID, ErrUnknownDeveloper, c.Spec.Developer)
		}
		if existing, ok := p.campaigns[c.OfferID]; ok {
			existing.Spec = c.Spec
			existing.Delivered = c.Delivered
			existing.Stopped = c.Stopped
		} else {
			p.campaigns[c.OfferID] = c
			p.appendWallLocked(c)
		}
	}
	p.nextID = nextID
	return nil
}
