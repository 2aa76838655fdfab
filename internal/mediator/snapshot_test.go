package mediator

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/binenc"
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

// flatSnapshot encodes a ledger snapshot from balances and one flat
// transfer slice: the reference a chunked history must match.
func flatSnapshot(balances map[string]float64, txs []Tx) []byte {
	accounts := make([]string, 0, len(balances))
	for acct := range balances {
		accounts = append(accounts, acct)
	}
	sort.Strings(accounts)
	enc := binenc.NewEnc(64)
	enc.U8(ledgerSnapshotVersion)
	enc.Uvarint(uint64(len(accounts)))
	for _, acct := range accounts {
		enc.Str(acct)
		enc.F64(balances[acct])
	}
	enc.Uvarint(uint64(len(txs)))
	for _, tx := range txs {
		enc.Str(tx.From)
		enc.Str(tx.To)
		enc.F64(tx.Amount)
		enc.Str(tx.Memo)
	}
	return enc.Bytes()
}

// TestChunkedHistoryMatchesFlat posts histories that end just before, at
// and just after chunk boundaries. Transactions, NumTransactions and the
// snapshot bytes must equal a flat reference's; a restore must give the
// same history back and keep posting across the next boundary; and a
// balances-only ledger must restore the balances and no history.
func TestChunkedHistoryMatchesFlat(t *testing.T) {
	for _, n := range []int{0, 1, txChunkLen - 1, txChunkLen, txChunkLen + 1, 2*txChunkLen + 1} {
		l := NewLedger()
		var flat []Tx
		balances := map[string]float64{}
		post := func(l *Ledger, i int) Tx {
			tx := Tx{From: fmt.Sprintf("dev:%d", i%7), To: fmt.Sprintf("user:%d", i%5), Amount: 0.01 * float64(i+1), Memo: settleMemos[i%4]}
			if err := l.Post(tx.From, tx.To, tx.Amount, tx.Memo); err != nil {
				t.Fatal(err)
			}
			return tx
		}
		for i := 0; i < n; i++ {
			tx := post(l, i)
			flat = append(flat, tx)
			balances[tx.From] -= tx.Amount
			balances[tx.To] += tx.Amount
		}
		if got := l.NumTransactions(); got != n {
			t.Errorf("n=%d: NumTransactions = %d", n, got)
		}
		if got := l.Transactions(); !reflect.DeepEqual(got, flat) {
			t.Errorf("n=%d: Transactions differ from the flat history", n)
		}
		snap := l.EncodeSnapshot()
		if !bytes.Equal(snap, flatSnapshot(balances, flat)) {
			t.Errorf("n=%d: EncodeSnapshot differs from the flat reference", n)
		}
		if !bytes.Equal(l.EncodeBalances(), flatSnapshot(balances, nil)) {
			t.Errorf("n=%d: EncodeBalances differs from the flat zero-transfer reference", n)
		}

		restored := NewLedger()
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(restored.EncodeSnapshot(), snap) || !reflect.DeepEqual(restored.Transactions(), flat) {
			t.Errorf("n=%d: restore does not give the history back", n)
		}
		next := post(restored, n)
		if got := restored.Transactions(); len(got) != n+1 || !slices.Equal(got[:n], flat) || got[n] != next {
			t.Errorf("n=%d: posting after a restore does not extend the history", n)
		}

		bal := NewLedger()
		bal.DisableTxLog()
		if err := bal.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		post(bal, n)
		if got := bal.NumTransactions(); got != 0 || bal.Transactions() != nil {
			t.Errorf("n=%d: balances-only ledger holds %d transfers after a restore and a post", n, got)
		}
		if !bytes.Equal(bal.EncodeSnapshot(), restored.EncodeBalances()) {
			t.Errorf("n=%d: balances-only ledger's balances differ from the full ledger's", n)
		}
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
