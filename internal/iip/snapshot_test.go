package iip

import (
	"bytes"
	"testing"

	"repro/internal/dates"
	"repro/internal/offers"
)

func snapshotFixture(t *testing.T) (*Platform, *Campaign) {
	t.Helper()
	p := &Platform{Name: "snapiip", FeeFraction: 0.3, AffiliateFraction: 0.3, PacePerHour: 100}
	if err := p.RegisterDeveloper("dev", Documentation{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Deposit("dev", 1000); err != nil {
		t.Fatal(err)
	}
	c, err := p.LaunchCampaign(CampaignSpec{
		Developer: "dev", AppPackage: "com.x", Type: offers.NoActivity,
		UserPayoutUSD: 0.06, Target: 50,
		Window: dates.Range{Start: 0, End: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, c
}

func TestPlatformSnapshotRoundTrip(t *testing.T) {
	p, c := snapshotFixture(t)
	for i := 0; i < 7; i++ {
		if _, err := p.RecordCompletion(c.OfferID, 5); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.EncodeSnapshot()

	// The "resumed" platform: same build, no deliveries yet.
	p2, _ := snapshotFixture(t)
	if err := p2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	got, err := p2.Campaign(c.OfferID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Delivered != 7 || got.Stopped {
		t.Errorf("restored campaign = %+v, want Delivered=7", got)
	}
	b1, _ := p.Balance("dev")
	b2, _ := p2.Balance("dev")
	if b1 != b2 {
		t.Errorf("restored balance %v, want %v (bit-exact)", b2, b1)
	}
	// Further settlements on both must agree exactly.
	d1, err1 := p.RecordCompletion(c.OfferID, 6)
	d2, err2 := p2.RecordCompletion(c.OfferID, 6)
	if err1 != nil || err2 != nil || d1 != d2 {
		t.Errorf("post-restore settlement diverged: %+v/%v vs %+v/%v", d1, err1, d2, err2)
	}
}

// TestPlatformSnapshotRecreatesMissingState: campaigns and developer
// accounts created outside the deterministic world build (the honey-app
// experiment) must survive restore onto a platform that never saw them.
func TestPlatformSnapshotRecreatesMissingState(t *testing.T) {
	p, c := snapshotFixture(t)
	if _, err := p.RecordCompletion(c.OfferID, 5); err != nil {
		t.Fatal(err)
	}
	snap := p.EncodeSnapshot()
	fresh := &Platform{Name: "snapiip", FeeFraction: 0.3, AffiliateFraction: 0.3, PacePerHour: 100}
	if err := fresh.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Campaign(c.OfferID)
	if err != nil {
		t.Fatalf("restored campaign missing: %v", err)
	}
	if got.Delivered != 1 || got.Spec.AppPackage != "com.x" {
		t.Errorf("recreated campaign = %+v", got)
	}
	b1, _ := p.Balance("dev")
	b2, _ := fresh.Balance("dev")
	if b1 != b2 {
		t.Errorf("recreated balance %v, want %v", b2, b1)
	}
	// Further settlements agree exactly, and the ID counter continues.
	d1, err1 := p.RecordCompletion(c.OfferID, 6)
	d2, err2 := fresh.RecordCompletion(c.OfferID, 6)
	if err1 != nil || err2 != nil || d1 != d2 {
		t.Errorf("post-restore settlement diverged: %+v/%v vs %+v/%v", d1, err1, d2, err2)
	}
	if err := p.RestoreSnapshot(snap[:len(snap)-1]); err == nil {
		t.Error("truncated snapshot must be rejected")
	}
}

// FuzzPlatformRestoreSnapshot feeds RestoreSnapshot mangled snapshots,
// onto a platform that never saw the state and onto one that did. It must
// never panic, and whatever is accepted must re-encode to bytes that
// restore, on a fresh platform, to the same encoding.
func FuzzPlatformRestoreSnapshot(f *testing.F) {
	p := &Platform{Name: "fuzziip", FeeFraction: 0.3, AffiliateFraction: 0.3, PacePerHour: 100}
	for _, dev := range []string{"dev", "vetted"} {
		if err := p.RegisterDeveloper(dev, Documentation{TaxID: "T-" + dev, BankAccount: "B-" + dev}); err != nil {
			f.Fatal(err)
		}
		if err := p.Deposit(dev, 1000); err != nil {
			f.Fatal(err)
		}
	}
	for i, spec := range []CampaignSpec{
		{Developer: "dev", AppPackage: "com.x", Description: "Install and Open", Type: offers.NoActivity, UserPayoutUSD: 0.06, Target: 3},
		{Developer: "vetted", AppPackage: "com.y", Description: "Reach level 10", Type: offers.Usage, UserPayoutUSD: 0.5, Target: 40, Countries: []string{"USA", "India"}},
	} {
		spec.Window = dates.Range{Start: dates.Date(i), End: dates.Date(100 + i)}
		c, err := p.LaunchCampaign(spec)
		if err != nil {
			f.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if _, err := p.RecordCompletion(c.OfferID, dates.Date(10+j)); err != nil {
				f.Fatal(err)
			}
		}
		c.Stopped = i == 0
	}
	snap := p.EncodeSnapshot()
	if fresh := (&Platform{Name: "fresh"}); fresh.RestoreSnapshot(snap) != nil || !bytes.Equal(fresh.EncodeSnapshot(), snap) {
		f.Fatal("a real snapshot does not restore to itself")
	}
	f.Add(snap)
	f.Add((&Platform{Name: "empty"}).EncodeSnapshot())

	f.Fuzz(func(t *testing.T, data []byte) {
		built := &Platform{Name: "fuzziip"}
		if err := built.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		for _, target := range []*Platform{{Name: "fresh"}, built} {
			if err := target.RestoreSnapshot(data); err != nil {
				continue
			}
			enc := target.EncodeSnapshot()
			again := &Platform{Name: "again"}
			if err := again.RestoreSnapshot(enc); err != nil {
				t.Fatalf("re-encoded snapshot does not restore: %v", err)
			}
			if !bytes.Equal(again.EncodeSnapshot(), enc) {
				t.Fatal("re-encoding is not a fixed point")
			}
		}
	})
}
