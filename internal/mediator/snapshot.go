package mediator

import (
	"fmt"
	"sort"

	"repro/internal/binenc"
)

// Snapshot wire-format versions.
const (
	mediatorSnapshotVersion = 1
	ledgerSnapshotVersion   = 1
)

// EncodeSnapshot serializes the mediator's mutable counters: the certified
// total and the per-offer click numbering. Offer requirements and click
// states are deliberately excluded — requirements are re-registered by the
// deterministic world build a resume runs first, and historical click
// states are only consulted by the same delivery that minted them, which a
// day-boundary checkpoint can never bisect. Call OfferSession.SyncTo for
// every live session first so session-minted clicks are counted.
func (m *Mediator) EncodeSnapshot() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	enc := binenc.NewEnc(256)
	enc.U8(mediatorSnapshotVersion)
	enc.Varint(int64(m.certified))
	offers := make([]string, 0, len(m.nextClick))
	for offer := range m.nextClick {
		offers = append(offers, offer)
	}
	sort.Strings(offers)
	enc.Uvarint(uint64(len(offers)))
	for _, offer := range offers {
		enc.Str(offer)
		enc.Varint(int64(m.nextClick[offer]))
	}
	return enc.Bytes()
}

// RestoreSnapshot overlays EncodeSnapshot state onto the mediator: the
// certified total is replaced and click numbering resumes where the
// snapshot left it, so sessions resolved after the restore continue the
// exact ID sequence of the checkpointed run.
func (m *Mediator) RestoreSnapshot(data []byte) error {
	dec := binenc.NewDec(data)
	if v := dec.U8(); dec.Err() == nil && v != mediatorSnapshotVersion {
		return fmt.Errorf("mediator: unsupported snapshot version %d", v)
	}
	certified := dec.Varint()
	n := dec.Uvarint()
	// A count beyond the remaining input is corruption — reject it before
	// sizing the map.
	if dec.Err() == nil && n > uint64(dec.Remaining()) {
		return fmt.Errorf("mediator: decoding snapshot: %w", binenc.ErrTooLong)
	}
	next := make(map[string]int, n)
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		offer := dec.Str()
		next[offer] = int(dec.Varint())
	}
	if err := dec.Done(); err != nil {
		return fmt.Errorf("mediator: decoding snapshot: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.certified = int(certified)
	m.nextClick = next
	return nil
}

// SyncTo folds the session's click numbering back into the mediator so a
// snapshot taken afterwards counts session-minted clicks. The engine calls
// it for every campaign unit at each checkpoint barrier.
func (s *OfferSession) SyncTo(m *Mediator) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v := s.base + len(s.clicks); v > m.nextClick[s.offerID] {
		m.nextClick[s.offerID] = v
	}
}

// EncodeSnapshot serializes the ledger: every balance (sorted by account)
// and the full transaction log in posting order, floats bit-exact, into a
// buffer sized exactly up front.
func (l *Ledger) EncodeSnapshot() []byte { return l.encode(true) }

// EncodeBalances serializes the ledger's balances alone: the snapshot
// form of a ledger with no transfer history, which RestoreSnapshot reads
// like any other. A run log's segment frames embed it, since the log's
// settle records already hold the history.
func (l *Ledger) EncodeBalances() []byte { return l.encode(false) }

func (l *Ledger) encode(history bool) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	var txs txLog
	if history {
		txs = l.txs
	}
	accounts := make([]string, 0, len(l.balances))
	size := 1 + binenc.UvarintLen(uint64(len(l.balances))) + binenc.UvarintLen(uint64(txs.n))
	for acct := range l.balances {
		accounts = append(accounts, acct)
		size += binenc.StrLen(acct) + 8
	}
	for _, c := range txs.chunks {
		for _, tx := range c {
			size += binenc.StrLen(tx.From) + binenc.StrLen(tx.To) + 8 + binenc.StrLen(tx.Memo)
		}
	}
	sort.Strings(accounts)
	enc := binenc.NewEnc(size)
	enc.U8(ledgerSnapshotVersion)
	enc.Uvarint(uint64(len(accounts)))
	for _, acct := range accounts {
		enc.Str(acct)
		enc.F64(l.balances[acct])
	}
	enc.Uvarint(uint64(txs.n))
	for _, c := range txs.chunks {
		for _, tx := range c {
			enc.Str(tx.From)
			enc.Str(tx.To)
			enc.F64(tx.Amount)
			enc.Str(tx.Memo)
		}
	}
	return enc.Bytes()
}

// RestoreSnapshot replaces the ledger's contents with EncodeSnapshot
// state. Balances are restored bit-exact, so transfers posted after the
// restore accumulate onto the same float bit patterns the original run
// held. A balances-only ledger parses the history but keeps none of it.
func (l *Ledger) RestoreSnapshot(data []byte) error {
	dec := binenc.NewDec(data)
	if v := dec.U8(); dec.Err() == nil && v != ledgerSnapshotVersion {
		return fmt.Errorf("mediator: unsupported ledger snapshot version %d", v)
	}
	nBal := dec.Uvarint()
	if dec.Err() == nil && nBal > uint64(dec.Remaining()) {
		return fmt.Errorf("mediator: decoding ledger snapshot: %w", binenc.ErrTooLong)
	}
	// Transfers repeat a few hundred account names and a handful of memos
	// over and over: intern them, seeded with the balance names, so each
	// distinct string is allocated once.
	names := make(map[string]string, nBal)
	balances := make(map[string]float64, nBal)
	for i := uint64(0); i < nBal && dec.Err() == nil; i++ {
		acct := dec.InternStr(names)
		balances[acct] = dec.F64()
	}
	nTxs := dec.Uvarint()
	if dec.Err() == nil && nTxs > uint64(dec.Remaining()) {
		return fmt.Errorf("mediator: decoding ledger snapshot: %w", binenc.ErrTooLong)
	}
	// A balances-only ledger stays balances-only: a snapshot from a
	// full-log configuration restores its balances bit-exact but does not
	// resurrect the O(run) history.
	l.mu.Lock()
	keep := !l.balancesOnly
	l.mu.Unlock()
	var txs txLog
	for i := uint64(0); i < nTxs && dec.Err() == nil; i++ {
		tx := Tx{
			From:   dec.InternStr(names),
			To:     dec.InternStr(names),
			Amount: dec.F64(),
			Memo:   dec.InternStr(names),
		}
		if keep {
			txs.add(tx)
		}
	}
	if err := dec.Done(); err != nil {
		return fmt.Errorf("mediator: decoding ledger snapshot: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balances, l.txs = balances, txs
	return nil
}
