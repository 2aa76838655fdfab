// Package mediator models the third-party attribution services
// (AppsFlyer, Kochava, Adjust in the paper) that certify offer completion,
// and the double-entry money ledger that executes Figure 1's payment flow:
// developer -> IIP -> affiliate app -> end user, with the mediator taking a
// per-tracked-user fee.
package mediator

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrBadAmount rejects non-positive transfers.
var ErrBadAmount = errors.New("mediator: transfer amount must be positive")

// Tx is one ledger transaction.
type Tx struct {
	From, To string
	Amount   float64
	Memo     string
}

// Ledger is a double-entry account book. Accounts are created on first
// use; external parties (a developer's bank) naturally go negative as they
// fund the system, so the sum of all balances is always zero.
type Ledger struct {
	mu       sync.Mutex
	balances map[string]float64
	txs      txLog
	// balancesOnly drops the per-transfer log (and its memo strings),
	// bounding the ledger at O(accounts) instead of O(run) — the
	// massive-world configs switch it on (DESIGN.md E12). Balances,
	// conservation, and snapshots stay bit-identical; only the retained
	// Tx history (empty in snapshots too) differs.
	balancesOnly bool
}

// NewLedger returns an empty ledger that retains its full transaction
// log.
func NewLedger() *Ledger {
	return &Ledger{balances: map[string]float64{}}
}

// DisableTxLog switches the ledger to balances-only accounting: future
// postings update balances without appending to the transaction log, and
// any already-retained log is released. Call before the first posting
// when the whole run should be bounded.
func (l *Ledger) DisableTxLog() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balancesOnly = true
	l.txs = txLog{}
}

// Post transfers amount from one account to another.
func (l *Ledger) Post(from, to string, amount float64, memo string) error {
	if err := validateTx(from, to, amount); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.applyLocked(Tx{From: from, To: to, Amount: amount, Memo: memo})
	return nil
}

// PostAll applies a batch of pre-validated transactions under one lock
// acquisition, in slice order. The parallel day engine flushes each work
// unit's TxBuffer through here in a fixed unit order, so the ledger's
// transaction log — and every floating-point balance — is bit-for-bit
// identical regardless of how many workers produced the buffers.
func (l *Ledger) PostAll(txs []Tx) error {
	for _, tx := range txs {
		if err := validateTx(tx.From, tx.To, tx.Amount); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, tx := range txs {
		l.applyLocked(tx)
	}
	return nil
}

func (l *Ledger) applyLocked(tx Tx) {
	l.balances[tx.From] -= tx.Amount
	l.balances[tx.To] += tx.Amount
	if !l.balancesOnly {
		l.txs.add(tx)
	}
}

// txChunkLen is the number of transfers one chunk of a ledger's history
// holds.
const txChunkLen = 1 << 10

// txLog is a ledger's transfer history in posting order, held in chunks
// of txChunkLen: a posting fills the last chunk or opens a new one, so
// the history never grows by copying what it already holds.
type txLog struct {
	chunks [][]Tx // all full but the last
	n      int
}

func (t *txLog) add(tx Tx) {
	if t.n%txChunkLen == 0 {
		t.chunks = append(t.chunks, make([]Tx, 0, txChunkLen))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, tx)
	t.n++
}

func validateTx(from, to string, amount float64) error {
	if amount <= 0 {
		return fmt.Errorf("%w: %.4f (%s -> %s)", ErrBadAmount, amount, from, to)
	}
	return nil
}

// TxBuffer accumulates postings without touching a ledger. It is not safe
// for concurrent use: each concurrent work unit owns its own buffer and
// the engine flushes them sequentially in canonical unit order.
type TxBuffer struct {
	txs []Tx
}

// Post validates and buffers one transfer.
func (b *TxBuffer) Post(from, to string, amount float64, memo string) error {
	if err := validateTx(from, to, amount); err != nil {
		return err
	}
	b.txs = append(b.txs, Tx{From: from, To: to, Amount: amount, Memo: memo})
	return nil
}

// PostAll validates and buffers transfers in order; on a rejected one
// nothing is buffered.
func (b *TxBuffer) PostAll(txs []Tx) error {
	for _, tx := range txs {
		if err := validateTx(tx.From, tx.To, tx.Amount); err != nil {
			return err
		}
	}
	b.txs = append(b.txs, txs...)
	return nil
}

// Len returns how many transfers are buffered.
func (b *TxBuffer) Len() int { return len(b.txs) }

// FlushTo applies the buffered transfers to the ledger in posting order
// and empties the buffer. On a rejected batch the buffer is left intact
// so the caller can inspect what failed to post.
func (b *TxBuffer) FlushTo(l *Ledger) error {
	if len(b.txs) == 0 {
		return nil
	}
	if err := l.PostAll(b.txs); err != nil {
		return err
	}
	b.txs = b.txs[:0]
	return nil
}

// Settlement is the money of one settled delivery: N certified
// completions of an offer, paid along Figure 1's flow between five ledger
// accounts. A batch settlement posts under plural memos.
type Settlement struct {
	Developer, IIP, Affiliate, User, Mediator string

	N                                       int64
	Batch                                   bool
	Gross, AffiliateCut, UserPayout, FeePer float64
}

var (
	settleMemos      = [4]string{"offer completion", "affiliate share", "reward redemption", "attribution fee"}
	batchSettleMemos = [4]string{"offer completions (batch)", "affiliate share (batch)", "reward redemptions (batch)", "attribution fees (batch)"}
)

// Legs returns the settlement's four ledger transfers in posting order:
// the developer pays the IIP the gross, the IIP passes the affiliate its
// cut plus the users' payout, the affiliate redeems the payout to the
// user, and the developer pays the mediator FeePer per completion. The
// live engine and replay both post these, so the amounts agree to the
// bit.
func (s Settlement) Legs() [4]Tx {
	memo := &settleMemos
	if s.Batch {
		memo = &batchSettleMemos
	}
	return [4]Tx{
		{From: s.Developer, To: s.IIP, Amount: s.Gross, Memo: memo[0]},
		{From: s.IIP, To: s.Affiliate, Amount: s.AffiliateCut + s.UserPayout, Memo: memo[1]},
		{From: s.Affiliate, To: s.User, Amount: s.UserPayout, Memo: memo[2]},
		{From: s.Developer, To: s.Mediator, Amount: s.FeePer * float64(s.N), Memo: memo[3]},
	}
}

// Balance returns an account's balance (0 for unknown accounts).
func (l *Ledger) Balance(account string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.balances[account]
}

// Balances returns a copy of every account balance; the determinism tests
// compare whole-economy snapshots across engine worker counts.
func (l *Ledger) Balances() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]float64, len(l.balances))
	for k, v := range l.balances {
		out[k] = v
	}
	return out
}

// Sum returns the sum over all balances; it is 0 unless the ledger is
// corrupted.
func (l *Ledger) Sum() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0.0
	for _, b := range l.balances {
		total += b
	}
	return total
}

// NumTransactions returns how many transfers have been posted.
func (l *Ledger) NumTransactions() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.txs.n
}

// Transactions returns a copy of the transaction log.
func (l *Ledger) Transactions() []Tx {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Concat(l.txs.chunks...)
}

// Account name helpers keep the naming scheme in one place.
func DeveloperAccount(id string) string  { return "dev:" + id }
func IIPAccount(name string) string      { return "iip:" + name }
func AffiliateAccount(pkg string) string { return "affiliate:" + pkg }
func UserAccount(id string) string       { return "user:" + id }
func MediatorAccount(name string) string { return "mediator:" + name }

// ExternalWorld is the funding source account (developer banks, gift-card
// processors).
const ExternalWorld = "external"
