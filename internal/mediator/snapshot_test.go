package mediator

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/offers"
)

func TestMediatorSnapshotResumesClickNumbering(t *testing.T) {
	m := New("snaptest")
	m.RegisterOffer("offer-1", offers.NoActivity)
	m.RegisterOffer("offer-2", offers.Usage)
	s1, err := m.Session("offer-1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s1.TrackClick("w", 10)
	}
	if ok, err := s1.Postback(s1.TrackClick("w", 10), EventOpen); err != nil || !ok {
		t.Fatalf("postback = (%v, %v)", ok, err)
	}
	s1.SyncTo(m)
	snap := m.EncodeSnapshot()

	// A fresh mediator (the resume world build re-registers offers) with
	// the snapshot restored continues the exact click ID sequence.
	m2 := New("snaptest")
	m2.RegisterOffer("offer-1", offers.NoActivity)
	m2.RegisterOffer("offer-2", offers.Usage)
	if err := m2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got, want := m2.Certified(), m.Certified(); got != want {
		t.Errorf("certified = %d, want %d", got, want)
	}
	s1b, err := m2.Session("offer-1")
	if err != nil {
		t.Fatal(err)
	}
	wantClick, err := s1b.Click(s1b.TrackClick("w", 11))
	if err != nil {
		t.Fatal(err)
	}
	liveClick, err := s1.Click(s1.TrackClick("w", 11))
	if err != nil {
		t.Fatal(err)
	}
	if wantClick.ID != liveClick.ID {
		t.Errorf("post-restore click ID %q, want %q (numbering must continue)", wantClick.ID, liveClick.ID)
	}
	if _, err := m2.Session("offer-2"); err != nil {
		t.Errorf("untouched offer session: %v", err)
	}
}

func TestLedgerSnapshotRoundTrip(t *testing.T) {
	l := NewLedger()
	if err := l.Post("a", "b", 1.25, "first"); err != nil {
		t.Fatal(err)
	}
	if err := l.Post("b", "c", 0.3, "second"); err != nil {
		t.Fatal(err)
	}
	snap := l.EncodeSnapshot()
	l2 := NewLedger()
	if err := l2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l2.EncodeSnapshot(), snap) {
		t.Fatal("ledger encode→decode→encode is not byte-identical")
	}
	if got := l2.Balance("b"); got != l.Balance("b") {
		t.Errorf("balance b = %v, want %v", got, l.Balance("b"))
	}
	if got, want := l2.NumTransactions(), 2; got != want {
		t.Errorf("transactions = %d, want %d", got, want)
	}
	if err := l2.RestoreSnapshot(snap[:len(snap)-1]); err == nil {
		t.Error("truncated ledger snapshot must not decode")
	}
}

// FuzzLedgerRestoreSnapshot feeds RestoreSnapshot mangled snapshots. It
// must never panic, a full and a balances-only ledger must agree on what
// they accept, and whatever is accepted must re-encode to a fixed point
// of restore and encode with the same transactions (the interned From,
// To and Memo strings included).
func FuzzLedgerRestoreSnapshot(f *testing.F) {
	l := NewLedger()
	for _, tx := range []Tx{
		{From: "dev:a", To: "iip:x", Amount: 1.25, Memo: "campaign"},
		{From: "iip:x", To: "user:w1", Amount: 0.3, Memo: "payout"},
		{From: "iip:x", To: "user:w2", Amount: 0.3, Memo: "payout"},
		{From: "user:w1", To: "dev:a", Amount: 4.99, Memo: "purchase"},
	} {
		if err := l.Post(tx.From, tx.To, tx.Amount, tx.Memo); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(l.EncodeSnapshot())
	f.Add(NewLedger().EncodeSnapshot())
	f.Add([]byte{ledgerSnapshotVersion, 1, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		full, bal := NewLedger(), NewLedger()
		bal.DisableTxLog()
		err := full.RestoreSnapshot(data)
		if errBal := bal.RestoreSnapshot(data); (err == nil) != (errBal == nil) {
			t.Fatalf("full ledger restore err %v, balances-only %v", err, errBal)
		}
		if err != nil {
			return
		}
		if n := bal.NumTransactions(); n != 0 {
			t.Fatalf("balances-only ledger restored %d transactions", n)
		}
		enc := full.EncodeSnapshot()
		again := NewLedger()
		if err := again.RestoreSnapshot(enc); err != nil {
			t.Fatalf("re-encoded snapshot does not restore: %v", err)
		}
		if !bytes.Equal(again.EncodeSnapshot(), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
		txs, txs2 := full.Transactions(), again.Transactions()
		if len(txs) != len(txs2) {
			t.Fatalf("%d transactions, %d after re-encoding", len(txs), len(txs2))
		}
		for i := range txs {
			a, b := txs[i], txs2[i]
			if a.From != b.From || a.To != b.To || a.Memo != b.Memo || math.Float64bits(a.Amount) != math.Float64bits(b.Amount) {
				t.Fatalf("transaction %d changed across re-encoding: %+v vs %+v", i, a, b)
			}
		}
	})
}

// FuzzMediatorRestoreSnapshot feeds RestoreSnapshot mangled snapshots;
// replay decodes this blob from a run log's base frame. It must never
// panic, and whatever is accepted must re-encode to a fixed point of
// restore and encode. The seed is a real snapshot (clicks on two offers,
// a certified postback), which must restore to itself.
func FuzzMediatorRestoreSnapshot(f *testing.F) {
	m := New("fuzz")
	m.RegisterOffer("offer-1", offers.NoActivity)
	m.RegisterOffer("offer-2", offers.Usage)
	for _, id := range []string{"offer-1", "offer-2"} {
		s, err := m.Session(id)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s.TrackClick("w", 10)
		}
		if id == "offer-1" {
			if ok, err := s.Postback(s.TrackClick("w", 10), EventOpen); err != nil || !ok {
				f.Fatalf("postback = (%v, %v)", ok, err)
			}
		}
		s.SyncTo(m)
	}
	snap := m.EncodeSnapshot()
	restored := New("fuzz")
	if err := restored.RestoreSnapshot(snap); err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(restored.EncodeSnapshot(), snap) {
		f.Fatal("a real snapshot does not restore to itself")
	}
	f.Add(snap)
	f.Add(New("fuzz").EncodeSnapshot())
	f.Add([]byte{mediatorSnapshotVersion, 2, 2, 1, 'a', 4, 1, 'a', 6})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := New("fuzz")
		if err := m.RestoreSnapshot(data); err != nil {
			return
		}
		enc := m.EncodeSnapshot()
		again := New("fuzz")
		if err := again.RestoreSnapshot(enc); err != nil {
			t.Fatalf("re-encoded snapshot does not restore: %v", err)
		}
		if !bytes.Equal(again.EncodeSnapshot(), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
		if again.Certified() != m.Certified() {
			t.Fatalf("certified %d, %d after re-encoding", m.Certified(), again.Certified())
		}
	})
}
