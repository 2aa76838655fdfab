package mediator

import (
	"testing"

	"repro/internal/offers"
)

// BenchmarkPostback measures the day engine's click path (DESIGN.md E5):
// a click through the per-offer OfferSession is a slice append addressed
// by ClickRef, and its string ID is never materialized.
func BenchmarkPostback(b *testing.B) {
	b.Run("session", func(b *testing.B) {
		m := New("bench")
		m.RegisterOffer("offer-1", offers.Registration)
		s, err := m.Session("offer-1")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ref := s.TrackClick("w", 0)
			if ok, err := s.Postback(ref, EventRegister); err != nil || !ok {
				b.Fatalf("postback = (%v, %v)", ok, err)
			}
		}
	})
}

// BenchmarkLedgerPost measures one buffered posting plus its amortized
// flush, comparing per-post account-name concatenation ("concat", the
// pre-E5 delivery path) against account names interned once ("interned",
// what the engine now posts with).
func BenchmarkLedgerPost(b *testing.B) {
	const devID, iipName = "adv-dev-00042", "fyber"
	b.Run("concat", func(b *testing.B) {
		var buf TxBuffer
		l := NewLedger()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := buf.Post(DeveloperAccount(devID), IIPAccount(iipName), 0.17, "offer completion"); err != nil {
				b.Fatal(err)
			}
			if buf.Len() >= 4096 {
				if err := buf.FlushTo(l); err != nil {
					b.Fatal(err)
				}
				if l.NumTransactions() >= 1<<20 {
					l = NewLedger() // bound memory across long runs
				}
			}
		}
	})
	b.Run("interned", func(b *testing.B) {
		dev := DeveloperAccount(devID)
		iipAcct := IIPAccount(iipName)
		var buf TxBuffer
		l := NewLedger()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := buf.Post(dev, iipAcct, 0.17, "offer completion"); err != nil {
				b.Fatal(err)
			}
			if buf.Len() >= 4096 {
				if err := buf.FlushTo(l); err != nil {
					b.Fatal(err)
				}
				if l.NumTransactions() >= 1<<20 {
					l = NewLedger() // bound memory across long runs
				}
			}
		}
	})
}
