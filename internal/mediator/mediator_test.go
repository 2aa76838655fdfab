package mediator

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dates"
	"repro/internal/offers"
)

func TestLedgerPostAndBalances(t *testing.T) {
	l := NewLedger()
	if err := l.Post(ExternalWorld, DeveloperAccount("d1"), 100, "funding"); err != nil {
		t.Fatal(err)
	}
	if err := l.Post(DeveloperAccount("d1"), IIPAccount("Fyber"), 30, "campaign"); err != nil {
		t.Fatal(err)
	}
	if got := l.Balance(DeveloperAccount("d1")); got != 70 {
		t.Errorf("dev balance = %g, want 70", got)
	}
	if got := l.Balance(IIPAccount("Fyber")); got != 30 {
		t.Errorf("iip balance = %g, want 30", got)
	}
	if got := l.Balance(ExternalWorld); got != -100 {
		t.Errorf("external = %g, want -100", got)
	}
	if l.NumTransactions() != 2 {
		t.Errorf("txs = %d", l.NumTransactions())
	}
}

// TestLedgerBalancesOnly checks the bounded-memory mode: identical
// balances and conservation, no retained history — through postings,
// snapshot round-trips, and a restore from a full-log snapshot.
func TestLedgerBalancesOnly(t *testing.T) {
	full, lean := NewLedger(), NewLedger()
	lean.DisableTxLog()
	post := func(l *Ledger) {
		if err := l.Post(ExternalWorld, DeveloperAccount("d1"), 100, "fund"); err != nil {
			t.Fatal(err)
		}
		if err := l.Post(DeveloperAccount("d1"), IIPAccount("Fyber"), 30, "campaign"); err != nil {
			t.Fatal(err)
		}
	}
	post(full)
	post(lean)
	for acct, want := range full.Balances() {
		if got := lean.Balance(acct); got != want {
			t.Errorf("balance %s = %g, want %g", acct, got, want)
		}
	}
	if lean.Sum() != 0 {
		t.Errorf("conservation broken: sum = %g", lean.Sum())
	}
	if n := lean.NumTransactions(); n != 0 {
		t.Errorf("balances-only ledger retained %d transactions", n)
	}

	// Restoring a full-log snapshot into a balances-only ledger keeps the
	// balances bit-exact without resurrecting the history.
	restored := NewLedger()
	restored.DisableTxLog()
	if err := restored.RestoreSnapshot(full.EncodeSnapshot()); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Balance(DeveloperAccount("d1")), full.Balance(DeveloperAccount("d1")); got != want {
		t.Errorf("restored balance = %g, want %g", got, want)
	}
	if n := restored.NumTransactions(); n != 0 {
		t.Errorf("restore resurrected %d transactions", n)
	}

	// DisableTxLog after the fact releases what was already retained.
	full.DisableTxLog()
	if n := full.NumTransactions(); n != 0 {
		t.Errorf("DisableTxLog retained %d transactions", n)
	}
}

func TestLedgerRejectsBadAmounts(t *testing.T) {
	l := NewLedger()
	if err := l.Post("a", "b", 0, ""); !errors.Is(err, ErrBadAmount) {
		t.Error("zero transfer should fail")
	}
	if err := l.Post("a", "b", -5, ""); !errors.Is(err, ErrBadAmount) {
		t.Error("negative transfer should fail")
	}
}

// Property: any sequence of valid transfers conserves money (sum == 0).
func TestLedgerConservation(t *testing.T) {
	f := func(moves []struct {
		From, To uint8
		Cents    uint16
	}) bool {
		l := NewLedger()
		accounts := []string{"a", "b", "c", "d", ExternalWorld}
		for _, mv := range moves {
			amt := float64(mv.Cents) / 100
			if amt <= 0 {
				continue
			}
			from := accounts[int(mv.From)%len(accounts)]
			to := accounts[int(mv.To)%len(accounts)]
			if err := l.Post(from, to, amt, "fuzz"); err != nil {
				return false
			}
		}
		return math.Abs(l.Sum()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.Post("a", "b", 1, "")
			}
		}()
	}
	wg.Wait()
	if got := l.Balance("b"); got != 1600 {
		t.Errorf("b = %g, want 1600", got)
	}
	if got := l.Sum(); math.Abs(got) > 1e-9 {
		t.Errorf("sum = %g", got)
	}
}

// TestTxBufferDeferredFlush covers the engine's buffered-settlement path:
// validation is eager, application is deferred, and FlushTo preserves
// posting order so replays are bit-identical.
func TestTxBufferDeferredFlush(t *testing.T) {
	l := NewLedger()
	var b TxBuffer
	if err := b.Post("a", "b", -1, "bad"); !errors.Is(err, ErrBadAmount) {
		t.Error("buffer must validate eagerly")
	}
	if err := b.Post(ExternalWorld, "a", 10, "fund"); err != nil {
		t.Fatal(err)
	}
	if err := b.Post("a", "b", 4, "pay"); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Errorf("buffered = %d, want 2", b.Len())
	}
	if l.NumTransactions() != 0 {
		t.Error("buffered postings must not touch the ledger before flush")
	}
	if err := b.FlushTo(l); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Error("flush must empty the buffer")
	}
	txs := l.Transactions()
	if len(txs) != 2 || txs[0].Memo != "fund" || txs[1].Memo != "pay" {
		t.Errorf("flush must preserve posting order: %+v", txs)
	}
	if got := l.Balance("a"); got != 6 {
		t.Errorf("a = %g, want 6", got)
	}
	if bal := l.Balances(); bal["b"] != 4 || len(bal) != 3 {
		t.Errorf("Balances snapshot wrong: %v", bal)
	}
	if math.Abs(l.Sum()) > 1e-9 {
		t.Errorf("sum = %g", l.Sum())
	}
}

func TestPostAllRejectsInvalidBatchAtomically(t *testing.T) {
	l := NewLedger()
	err := l.PostAll([]Tx{
		{From: "a", To: "b", Amount: 5, Memo: "ok"},
		{From: "b", To: "c", Amount: -2, Memo: "bad"},
	})
	if !errors.Is(err, ErrBadAmount) {
		t.Fatalf("want ErrBadAmount, got %v", err)
	}
	if l.NumTransactions() != 0 {
		t.Error("an invalid batch must apply nothing")
	}
}

func TestClickIDsPerOfferDeterministic(t *testing.T) {
	// Interleaving clicks across offers must not change any offer's own
	// ID sequence — the property the parallel engine relies on.
	ids := func(order []string) []string {
		m := New("af")
		sessions := map[string]*OfferSession{}
		for _, offer := range []string{"o1", "o2"} {
			m.RegisterOffer(offer, offers.NoActivity)
			s, err := m.Session(offer)
			if err != nil {
				t.Fatal(err)
			}
			sessions[offer] = s
		}
		var o2 []string
		for _, offer := range order {
			s := sessions[offer]
			c, err := s.Click(s.TrackClick("w", 0))
			if err != nil {
				t.Fatal(err)
			}
			if offer == "o2" {
				o2 = append(o2, c.ID)
			}
		}
		return o2
	}
	want := []string{"af-o2-c000001", "af-o2-c000002"}
	for _, order := range [][]string{{"o1", "o2", "o1", "o2"}, {"o2", "o1", "o1", "o2"}} {
		if got := ids(order); !reflect.DeepEqual(got, want) {
			t.Errorf("order %v: o2 click IDs %v, want %v", order, got, want)
		}
	}
}

func TestTransactionsCopy(t *testing.T) {
	l := NewLedger()
	l.Post("a", "b", 5, "x")
	txs := l.Transactions()
	txs[0].Amount = 999
	if l.Transactions()[0].Amount != 5 {
		t.Error("Transactions must return a copy")
	}
}

func TestRequiredEvent(t *testing.T) {
	cases := []struct {
		tp   offers.Type
		want EventType
	}{
		{offers.NoActivity, EventOpen},
		{offers.Registration, EventRegister},
		{offers.Usage, EventUsage},
		{offers.Purchase, EventPurchase},
	}
	for _, c := range cases {
		if got := RequiredEvent(c.tp); got != c.want {
			t.Errorf("RequiredEvent(%v) = %v, want %v", c.tp, got, c.want)
		}
	}
}

func TestAttributionLifecycle(t *testing.T) {
	m := New("appsflyer")
	m.RegisterOffer("offer-1", offers.Registration)
	s, err := m.Session("offer-1")
	if err != nil {
		t.Fatal(err)
	}
	ref := s.TrackClick("worker-9", dates.StudyStart)

	// Opening the app is not enough for a registration offer.
	if ok, err := s.Postback(ref, EventOpen); err != nil || ok {
		t.Fatalf("open should not certify: ok=%v err=%v", ok, err)
	}
	// Registering completes it.
	if ok, err := s.Postback(ref, EventRegister); err != nil || !ok {
		t.Fatalf("registration should certify: ok=%v err=%v", ok, err)
	}
	click, err := s.Click(ref)
	if err != nil {
		t.Fatal(err)
	}
	if click.Worker != "worker-9" || m.FeePerUser != 0.03 {
		t.Errorf("certified click %+v, fee %v", click, m.FeePerUser)
	}
	m.AddCertified(1)
	if m.Certified() != 1 {
		t.Errorf("certified = %d", m.Certified())
	}
	// Double certification is rejected (anti-fraud).
	if _, err := s.Postback(ref, EventRegister); !errors.Is(err, ErrAlreadyCertified) {
		t.Errorf("want ErrAlreadyCertified, got %v", err)
	}
}

func TestAttributionErrors(t *testing.T) {
	m := New("kochava")
	if _, err := m.Session("unregistered-offer"); !errors.Is(err, ErrUnknownOfferReq) {
		t.Errorf("session: want ErrUnknownOfferReq, got %v", err)
	}
	if err := m.CertifyBatch("unregistered-offer", 3); !errors.Is(err, ErrUnknownOfferReq) {
		t.Errorf("batch: want ErrUnknownOfferReq, got %v", err)
	}
	m.RegisterOffer("o", offers.NoActivity)
	s, err := m.Session("o")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Postback(ClickRef{Offer: "o"}, EventOpen); !errors.Is(err, ErrUnknownClick) {
		t.Errorf("want ErrUnknownClick, got %v", err)
	}
}

func TestNoActivityCertifiesOnOpen(t *testing.T) {
	m := New("adjust")
	m.RegisterOffer("o", offers.NoActivity)
	s, err := m.Session("o")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Postback(s.TrackClick("w", dates.StudyStart), EventOpen); err != nil || !ok {
		t.Fatalf("open should certify a no-activity offer: ok=%v err=%v", ok, err)
	}
}

func TestEventTypeString(t *testing.T) {
	if EventOpen.String() != "open" || EventPurchase.String() != "purchase" {
		t.Error("event strings wrong")
	}
	if EventType(42).String() != "event(42)" {
		t.Error("unknown event string wrong")
	}
}

func TestClickIDsUnique(t *testing.T) {
	m := New("af")
	m.RegisterOffer("o", offers.NoActivity)
	s, err := m.Session("o")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		c, err := s.Click(s.TrackClick("w", 0))
		if err != nil {
			t.Fatal(err)
		}
		if seen[c.ID] {
			t.Fatal("duplicate click ID")
		}
		seen[c.ID] = true
	}
}
