// Package stream implements the event-sourced run log: a typed,
// append-only, binary stream of everything the day engine does — installs,
// organic activity, clicks, postbacks, settlements, enforcement actions,
// chart snapshots — plus day-boundary checkpoints, full-state replay, and
// an online tail consumer.
//
// The log is framed: every record is [kind, u32 payload length, payload,
// u32 CRC-32C]. A file starts with an 8-byte magic, a header frame (run
// parameters), and a base frame (store/ledger/mediator snapshots at run
// start); event frames follow. All payload encodings are canonical (one
// byte form per value), so encode→decode→encode round-trips byte-exactly.
//
// Determinism: the engine buffers each work unit's events in a per-unit
// encoder during the parallel phases and concatenates the buffers at the
// day barrier in canonical unit order — the same order its ledger and
// install-log flushes already use — so the log bytes are bit-identical
// for any worker count. Replay applies the frames in order onto the base
// snapshot and recomputes charts and enforcement through the very same
// store code, reproducing the live run's state bit-for-bit (and verifying
// itself against the logged chart snapshots, enforcement actions, and
// day-end stat lines as it goes).
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"

	"repro/internal/binenc"
	"repro/internal/dates"
	"repro/internal/playstore"
)

// Magic opens every run-log file.
const Magic = "IIRLOG1\n"

// Version is the current run-log format version, written into the header.
// Version 2 added the interned string table (offer IDs, ledger account
// names, and catalog packages ride the base frame once and appear in
// event frames as 1-3 byte references). Version 3 added event-batch
// frames (a whole day's unit events length-prefixed inside one CRC'd
// frame) and segment index frames (periodic embedded checkpoints from
// which a seek replays one segment of events); readers accept both 2
// and 3.
const Version = 3

// minReadVersion is the oldest header version readers still accept.
// Version-2 logs simply contain no batch or segment frames.
const minReadVersion = 2

// maxFramePayload bounds a single frame (the base snapshot of a large
// world is the biggest frame written in practice).
const maxFramePayload = 1 << 30

// Codec errors.
var (
	ErrBadMagic = errors.New("stream: bad run-log magic")
	ErrCRC      = errors.New("stream: frame CRC mismatch")
	ErrFrame    = errors.New("stream: malformed frame")
)

// Kind identifies a frame type.
type Kind uint8

// Frame kinds. KindHeader and KindBase appear exactly once, at the start
// of a log; everything else is an event frame.
const (
	KindHeader       Kind = 1  // run parameters
	KindBase         Kind = 2  // store/ledger/mediator snapshots at run start
	KindDayStart     Kind = 3  // a simulated day begins
	KindOrganic      Kind = 4  // one app's organic installs/sessions/revenue for the day
	KindClick        Kind = 5  // offer-wall click tracked by the mediator
	KindInstall      Kind = 6  // one incentivized install (full-fidelity path)
	KindInstallBatch Kind = 7  // bulk incentivized installs (batch path)
	KindPostback     Kind = 8  // SDK event postback (certifying or not)
	KindCertifyBatch Kind = 9  // bulk certification without individual clicks
	KindSession      Kind = 10 // app-usage sessions recorded by the store
	KindPurchase     Kind = 11 // in-app purchase revenue
	KindSettle       Kind = 12 // settlement: money split + the four ledger legs
	KindEnforce      Kind = 13 // store enforcement action during StepDay
	KindChart        Kind = 14 // one chart's entries as computed for the day
	KindDayEnd       Kind = 15 // day barrier: cumulative run stats
	KindEventBatch   Kind = 16 // v3: a day's unit events as length-prefixed records, one CRC
	KindSegment      Kind = 17 // v3: segment index frame with an embedded checkpoint
)

func (k Kind) String() string {
	switch k {
	case KindHeader:
		return "header"
	case KindBase:
		return "base"
	case KindDayStart:
		return "day-start"
	case KindOrganic:
		return "organic"
	case KindClick:
		return "click"
	case KindInstall:
		return "install"
	case KindInstallBatch:
		return "install-batch"
	case KindPostback:
		return "postback"
	case KindCertifyBatch:
		return "certify-batch"
	case KindSession:
		return "session"
	case KindPurchase:
		return "purchase"
	case KindSettle:
		return "settle"
	case KindEnforce:
		return "enforce"
	case KindChart:
		return "chart"
	case KindDayEnd:
		return "day-end"
	case KindEventBatch:
		return "event-batch"
	case KindSegment:
		return "segment"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Header carries the run parameters replay needs beyond the base
// snapshot: the seed (informational), the monitored window, and the
// mediator identity/fee that reconstruct attribution-fee postings.
type Header struct {
	Version      uint32
	Seed         uint64
	WindowStart  dates.Date
	WindowEnd    dates.Date
	MediatorName string
	FeePerUser   float64
}

// Base is the run-start state: the snapshots replay rebuilds its world
// from. Store and Ledger use the playstore/mediator snapshot codecs; the
// mediator blob contributes the pre-run certified count (a honey-app
// experiment may have certified completions before the window opened).
//
// Devices is the interned device table: the run's known device IDs (the
// crowd-worker pools) in a deterministic order. Install/click events
// reference these by index — one or two bytes instead of a copied string
// for the millions of repeated references a large run produces — with an
// inline-string fallback for devices outside the table.
//
// Strings is the general interned string table, carrying the run's
// repeated non-device strings: catalog packages, offer IDs, and ledger
// account names. Every pkg/offer/account field of an event frame is a
// reference into it, with the same inline fallback as devices.
type Base struct {
	Store    []byte
	Ledger   []byte
	Mediator []byte
	Devices  []string
	Strings  []string
}

// DeviceTable builds the string→ref lookup for Devices. Encoders writing
// into the same log share one table.
func (b Base) DeviceTable() map[string]uint32 {
	return refTable(b.Devices)
}

// StringTable builds the string→ref lookup for Strings.
func (b Base) StringTable() map[string]uint32 {
	return refTable(b.Strings)
}

func refTable(list []string) map[string]uint32 {
	tab := make(map[string]uint32, len(list))
	for i, s := range list {
		if _, ok := tab[s]; !ok {
			tab[s] = uint32(i)
		}
	}
	return tab
}

// Event is one decoded frame. It is a sum type flattened into a struct:
// Kind selects which fields are meaningful (see the per-kind encoders for
// the exact field sets). Decoders reuse one Event across calls, so slices
// (Devices, Entries) are only valid until the next Next call.
type Event struct {
	Kind Kind

	Day dates.Date // DayStart, DayEnd

	Pkg    string // Organic, Install, InstallBatch, Session, Purchase, Enforce
	Device string // Install
	Offer  string // Click, Postback, CertifyBatch, Settle
	Worker string // Click
	Chart  string // Chart

	N       int64 // Organic installs, CertifyBatch/Session/Settle counts, Enforce removals
	DAU     int64 // Organic
	Seconds int64 // Organic and Session per-unit seconds

	PostEvent uint8 // Postback: the mediator.EventType reported
	Certified bool  // Postback: whether this postback certified the completion
	Batch     bool  // Settle: batch settlement (affects memos)

	Fraud      float64 // Organic, Install, InstallBatch
	USD        float64 // Organic (0 = no purchase), Purchase
	Gross      float64 // Settle
	AffCut     float64 // Settle
	UserPayout float64 // Settle

	DevAcct  string // Settle
	IIPAcct  string // Settle
	AffAcct  string // Settle
	UserAcct string // Settle

	Devices []string               // InstallBatch
	Entries []playstore.ChartEntry // Chart

	CumOrganic   int64   // DayEnd: cumulative organic installs
	CumIncent    int64   // DayEnd: cumulative incentivized installs
	CumCertified int64   // DayEnd: cumulative certified completions
	CumRevenue   float64 // DayEnd: cumulative organic revenue (bit-exact)
}

// Installs ranges over the device-resolved installs ev carries, dated day
// (a reader's Day): one for an install event, one per device of an
// install batch, none for any other kind.
func (ev *Event) Installs(day dates.Date) iter.Seq[Install] {
	return func(yield func(Install) bool) {
		switch ev.Kind {
		case KindInstall:
			yield(Install{Device: ev.Device, App: ev.Pkg, Day: day})
		case KindInstallBatch:
			for _, dev := range ev.Devices {
				if !yield(Install{Device: dev, App: ev.Pkg, Day: day}) {
					return
				}
			}
		}
	}
}

// Encoder appends complete frames to an in-memory buffer. Each engine work
// unit owns one, so frames can be produced concurrently and concatenated
// in canonical order at the day barrier. The zero value is ready to use
// (devices and strings are then always written inline; SetDeviceTable /
// SetStringTable enable the interned references).
//
// There is one method per event kind. The engine-emitted kinds take each
// interned name as a Ref resolved once up front (Intern, InternDevice);
// Event dispatches a decoded event to the same methods, resolving its
// names per call.
//
// In record mode (SetRecordMode) the encoder emits batch sub-records —
// [kind, uvarint length, payload] with no per-record CRC — instead of
// full frames; the buffers then go through Writer.EventBatch, which
// frames and checksums a whole day's records at once.
type Encoder struct {
	enc     binenc.Enc
	tab     map[string]uint32
	stab    map[string]uint32
	records bool
	nrec    int
}

// SetRecordMode switches the encoder between frame output (false, the
// default) and batch sub-record output (true). Switch only while empty.
func (e *Encoder) SetRecordMode(on bool) { e.records = on }

// SetDeviceTable installs the shared device-ref table (Base.DeviceTable).
// The table must match the Devices list in the log's base frame.
func (e *Encoder) SetDeviceTable(tab map[string]uint32) { e.tab = tab }

// SetStringTable installs the shared string-ref table (Base.StringTable).
// The table must match the Strings list in the log's base frame.
func (e *Encoder) SetStringTable(tab map[string]uint32) { e.stab = tab }

// Ref is an interned name as the event encoders take it: ID is the
// name's wire reference (its string- or device-table index + 1), or 0
// when S is written inline. S always holds the name itself, so a hot
// caller keeps one Ref per name, resolves its ID once at construction
// (Intern / InternDevice), and pays no map lookup per event; with no
// table the ID stays 0 and every name is written inline.
type Ref struct {
	ID uint32
	S  string
}

// Intern resolves s against the string table.
func (e *Encoder) Intern(s string) Ref {
	if id, ok := e.stab[s]; ok {
		return Ref{ID: id + 1, S: s}
	}
	return Ref{S: s}
}

// InternDevice resolves a device ID against the device table.
func (e *Encoder) InternDevice(device string) Ref {
	if id, ok := e.tab[device]; ok {
		return Ref{ID: id + 1, S: device}
	}
	return Ref{S: device}
}

// ref writes a wire reference; ID 0 is followed by the inline string.
func (e *Encoder) ref(r Ref) {
	e.enc.Uvarint(uint64(r.ID))
	if r.ID == 0 {
		e.enc.Str(r.S)
	}
}

// Bytes returns every frame appended so far.
func (e *Encoder) Bytes() []byte { return e.enc.Bytes() }

// Len returns the buffered byte count.
func (e *Encoder) Len() int { return e.enc.Len() }

// Records returns how many frames or sub-records were begun since the
// last Reset — the engine's per-day "events emitted" count, maintained
// as one integer increment inside the encoding path that already runs.
func (e *Encoder) Records() int { return e.nrec }

// Reset empties the encoder, keeping its capacity.
func (e *Encoder) Reset() {
	e.enc.Reset()
	e.nrec = 0
}

// Grow reserves capacity for at least n more bytes, so hot-path appends
// never reallocate mid-day.
func (e *Encoder) Grow(n int) { e.enc.Grow(n) }

// begin opens a frame or, in record mode, a sub-record (kind byte plus a
// 1-byte length slot for the common short payload). It returns the
// payload start offset for end.
func (e *Encoder) begin(k Kind) int {
	e.nrec++
	if !e.records {
		return e.enc.BeginFrame(uint8(k))
	}
	e.enc.U8(uint8(k))
	e.enc.U8(0)
	return e.enc.Len()
}

// end closes a frame or, in record mode, writes the sub-record's
// canonical uvarint length: the reserved byte covers payloads under 128
// bytes; longer payloads (rare — big install batches) shift right to make
// room for the multi-byte form.
func (e *Encoder) end(start int) {
	if !e.records {
		e.enc.EndFrame(start)
		return
	}
	buf := e.enc.Bytes()
	n := len(buf) - start
	if n < 0x80 {
		buf[start-1] = byte(n)
		return
	}
	var v [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(v[:], uint64(n))
	e.enc.Pad(ln - 1)
	buf = e.enc.Bytes()
	copy(buf[start-1+ln:], buf[start:start+n])
	copy(buf[start-1:], v[:ln])
}

// Header appends the header frame.
func (e *Encoder) Header(h Header) {
	s := e.begin(KindHeader)
	e.enc.Uvarint(uint64(h.Version))
	e.enc.U64(h.Seed)
	e.enc.Varint(int64(h.WindowStart))
	e.enc.Varint(int64(h.WindowEnd))
	e.enc.Str(h.MediatorName)
	e.enc.F64(h.FeePerUser)
	e.end(s)
}

// Base appends the base-snapshot frame.
func (e *Encoder) Base(b Base) {
	s := e.begin(KindBase)
	e.enc.Blob(b.Store)
	e.enc.Blob(b.Ledger)
	e.enc.Blob(b.Mediator)
	e.enc.Uvarint(uint64(len(b.Devices)))
	for _, d := range b.Devices {
		e.enc.Str(d)
	}
	e.enc.Uvarint(uint64(len(b.Strings)))
	for _, v := range b.Strings {
		e.enc.Str(v)
	}
	e.end(s)
}

// DayStart appends a day-start marker.
func (e *Encoder) DayStart(day dates.Date) {
	s := e.begin(KindDayStart)
	e.enc.Varint(int64(day))
	e.end(s)
}

// Organic appends one app's organic activity for the current day:
// installs (at meanFraud), dau sessions of secPer seconds, and usd of
// purchase revenue (0 = none recorded).
func (e *Encoder) Organic(pkg Ref, installs int64, meanFraud float64, dau, secPer int64, usd float64) {
	s := e.begin(KindOrganic)
	e.ref(pkg)
	e.enc.Uvarint(uint64(installs))
	e.enc.F64(meanFraud)
	e.enc.Uvarint(uint64(dau))
	e.enc.Uvarint(uint64(secPer))
	e.enc.F64(usd)
	e.end(s)
}

// Click appends a tracked offer-wall click.
func (e *Encoder) Click(offer, worker Ref) {
	s := e.begin(KindClick)
	e.ref(offer)
	e.ref(worker)
	e.end(s)
}

// Install appends one full-fidelity incentivized install.
func (e *Encoder) Install(pkg, device Ref, fraud float64) {
	s := e.begin(KindInstall)
	e.ref(pkg)
	e.ref(device)
	e.enc.F64(fraud)
	e.end(s)
}

// InstallBatch appends a bulk install event of n devices. device(i)
// returns the i-th fulfilling device; it is called exactly once per
// device, in order, so a caller may produce the devices as they are
// written instead of collecting them first.
func (e *Encoder) InstallBatch(pkg Ref, meanFraud float64, n int, device func(i int) Ref) {
	s := e.begin(KindInstallBatch)
	e.ref(pkg)
	e.enc.F64(meanFraud)
	e.enc.Uvarint(uint64(n))
	for i := 0; i < n; i++ {
		e.ref(device(i))
	}
	e.end(s)
}

// Postback appends an SDK event postback.
func (e *Encoder) Postback(offer Ref, event uint8, certified bool) {
	s := e.begin(KindPostback)
	e.ref(offer)
	e.enc.U8(event)
	e.enc.Bool(certified)
	e.end(s)
}

// CertifyBatch appends a bulk certification.
func (e *Encoder) CertifyBatch(offer Ref, n int64) {
	s := e.begin(KindCertifyBatch)
	e.ref(offer)
	e.enc.Uvarint(uint64(n))
	e.end(s)
}

// Session appends n recorded sessions of secPer seconds each.
func (e *Encoder) Session(pkg Ref, n, secPer int64) {
	s := e.begin(KindSession)
	e.ref(pkg)
	e.enc.Uvarint(uint64(n))
	e.enc.Uvarint(uint64(secPer))
	e.end(s)
}

// Purchase appends in-app purchase revenue.
func (e *Encoder) Purchase(pkg Ref, usd float64) {
	s := e.begin(KindPurchase)
	e.ref(pkg)
	e.enc.F64(usd)
	e.end(s)
}

// Settle appends one settlement: n completions of an offer, the money
// split, and the four ledger accounts the split moves through. Replay
// reconstructs the exact transfer sequence from these fields plus the
// header's mediator identity.
func (e *Encoder) Settle(offer Ref, n int64, batch bool, gross, affCut, userPayout float64, devAcct, iipAcct, affAcct, userAcct Ref) {
	s := e.begin(KindSettle)
	e.ref(offer)
	e.enc.Uvarint(uint64(n))
	e.enc.Bool(batch)
	e.enc.F64(gross)
	e.enc.F64(affCut)
	e.enc.F64(userPayout)
	e.ref(devAcct)
	e.ref(iipAcct)
	e.ref(affAcct)
	e.ref(userAcct)
	e.end(s)
}

// Enforce appends a store enforcement action.
func (e *Encoder) Enforce(pkg string, removed int64) {
	s := e.begin(KindEnforce)
	e.ref(e.Intern(pkg))
	e.enc.Uvarint(uint64(removed))
	e.end(s)
}

// Chart appends one chart's computed entries for the current day. The
// chart name stays inline (three short constants); entry packages are
// interned.
func (e *Encoder) Chart(name string, entries []playstore.ChartEntry) {
	s := e.begin(KindChart)
	e.enc.Str(name)
	e.enc.Uvarint(uint64(len(entries)))
	for _, en := range entries {
		e.enc.Varint(int64(en.Rank))
		e.ref(e.Intern(en.Package))
		e.enc.F64(en.Score)
	}
	e.end(s)
}

// DayEnd appends the day barrier with cumulative run stats.
func (e *Encoder) DayEnd(day dates.Date, cumOrganic, cumIncent, cumCertified int64, cumRevenue float64) {
	s := e.begin(KindDayEnd)
	e.enc.Varint(int64(day))
	e.enc.Uvarint(uint64(cumOrganic))
	e.enc.Uvarint(uint64(cumIncent))
	e.enc.Uvarint(uint64(cumCertified))
	e.enc.F64(cumRevenue)
	e.end(s)
}

// Event appends ev as a frame, dispatching to the canonical per-kind
// encoder; the codec round-trip tests and the runlog tooling use it.
// Header/Base frames are not events and are rejected.
func (e *Encoder) Event(ev *Event) error {
	switch ev.Kind {
	case KindDayStart:
		e.DayStart(ev.Day)
	case KindOrganic:
		e.Organic(e.Intern(ev.Pkg), ev.N, ev.Fraud, ev.DAU, ev.Seconds, ev.USD)
	case KindClick:
		e.Click(e.Intern(ev.Offer), e.InternDevice(ev.Worker))
	case KindInstall:
		e.Install(e.Intern(ev.Pkg), e.InternDevice(ev.Device), ev.Fraud)
	case KindInstallBatch:
		e.InstallBatch(e.Intern(ev.Pkg), ev.Fraud, len(ev.Devices), func(i int) Ref {
			return e.InternDevice(ev.Devices[i])
		})
	case KindPostback:
		e.Postback(e.Intern(ev.Offer), ev.PostEvent, ev.Certified)
	case KindCertifyBatch:
		e.CertifyBatch(e.Intern(ev.Offer), ev.N)
	case KindSession:
		e.Session(e.Intern(ev.Pkg), ev.N, ev.Seconds)
	case KindPurchase:
		e.Purchase(e.Intern(ev.Pkg), ev.USD)
	case KindSettle:
		e.Settle(e.Intern(ev.Offer), ev.N, ev.Batch, ev.Gross, ev.AffCut, ev.UserPayout,
			e.Intern(ev.DevAcct), e.Intern(ev.IIPAcct), e.Intern(ev.AffAcct), e.Intern(ev.UserAcct))
	case KindEnforce:
		e.Enforce(ev.Pkg, ev.N)
	case KindChart:
		e.Chart(ev.Chart, ev.Entries)
	case KindDayEnd:
		e.DayEnd(ev.Day, ev.CumOrganic, ev.CumIncent, ev.CumCertified, ev.CumRevenue)
	default:
		return fmt.Errorf("%w: cannot encode kind %s", ErrFrame, ev.Kind)
	}
	return nil
}

// Segment is a v3 segment index frame: it opens a bounded region of the
// log at a day boundary. Ordinal counts segments from 1 (the region
// before the first index frame is the implicit segment 0), FirstDay is
// the first day whose frames follow, and Checkpoint is an encoded
// reduced checkpoint (the store snapshot, the ledger's balances in its
// zero-transfer snapshot form, and cumulative stats at the end of
// FirstDay-1) that seeds a seeking replay — so rebuilding state at any
// day costs one segment of events plus one walk of the settle records
// before it, not a replay of the whole log.
type Segment struct {
	Ordinal    int64
	FirstDay   dates.Date
	Checkpoint []byte
}

// Segment appends a segment index frame (frame mode only).
func (e *Encoder) Segment(s Segment) {
	st := e.begin(KindSegment)
	e.enc.Uvarint(uint64(s.Ordinal))
	e.enc.Varint(int64(s.FirstDay))
	e.enc.Blob(s.Checkpoint)
	e.end(st)
}

// decodeSegment parses a KindSegment payload. The checkpoint aliases
// payload.
func decodeSegment(payload []byte) (Segment, error) {
	dec := binenc.NewDec(payload)
	s := Segment{
		Ordinal:  int64(dec.Uvarint()),
		FirstDay: dates.Date(dec.Varint()),
	}
	s.Checkpoint = dec.BlobView()
	if err := dec.Done(); err != nil {
		return Segment{}, fmt.Errorf("%w: decoding segment frame: %v", ErrFrame, err)
	}
	return s, nil
}

// isBatchableKind reports whether k may appear as a sub-record inside an
// event-batch frame (any event kind; structural frames may not nest).
func isBatchableKind(k Kind) bool {
	return k >= KindDayStart && k <= KindDayEnd
}

// parseRecord reads the batch sub-record starting at buf[off]:
// [kind, uvarint payload length, payload]. The containing frame's CRC
// already vouches for the bytes; this only validates structure.
func parseRecord(buf []byte, off int) (k Kind, payload []byte, next int, err error) {
	k = Kind(buf[off])
	n, ln := binary.Uvarint(buf[off+1:])
	if ln <= 0 || n > maxFramePayload {
		return 0, nil, 0, fmt.Errorf("%w: bad batch record length", ErrFrame)
	}
	p0 := off + 1 + ln
	if uint64(len(buf)-p0) < n {
		return 0, nil, 0, fmt.Errorf("%w: batch record of %d bytes overruns frame", ErrFrame, n)
	}
	if !isBatchableKind(k) {
		return 0, nil, 0, fmt.Errorf("%w: %s record inside event batch", ErrFrame, k)
	}
	return k, buf[p0 : p0+int(n)], p0 + int(n), nil
}

// decodeDev reads a device reference written by Encoder.ref.
func decodeDev(dec *binenc.Dec, table []string) string {
	return decodeRef(dec, table, "device")
}

// decodeIstr reads an interned-string reference written by Encoder.ref.
func decodeIstr(dec *binenc.Dec, table []string) string {
	return decodeRef(dec, table, "string")
}

func decodeRef(dec *binenc.Dec, table []string, what string) string {
	n := dec.Uvarint()
	if n == 0 {
		return dec.Str()
	}
	idx := n - 1
	if idx >= uint64(len(table)) {
		dec.Fail(fmt.Errorf("%w: %s ref %d beyond table of %d", ErrFrame, what, idx, len(table)))
		return ""
	}
	return table[idx]
}

// decodePayload fills ev from a frame payload, resolving device refs
// through table (the log's Base.Devices) and interned strings through
// strings (Base.Strings). The Devices and Entries slices on ev are reused
// across calls.
func decodePayload(k Kind, payload []byte, ev *Event, table, strings []string) error {
	dec := binenc.NewDec(payload)
	*ev = Event{Kind: k, Devices: ev.Devices[:0], Entries: ev.Entries[:0]}
	switch k {
	case KindDayStart:
		ev.Day = dates.Date(dec.Varint())
	case KindOrganic:
		ev.Pkg = decodeIstr(dec, strings)
		ev.N = int64(dec.Uvarint())
		ev.Fraud = dec.F64()
		ev.DAU = int64(dec.Uvarint())
		ev.Seconds = int64(dec.Uvarint())
		ev.USD = dec.F64()
	case KindClick:
		ev.Offer = decodeIstr(dec, strings)
		ev.Worker = decodeDev(dec, table)
	case KindInstall:
		ev.Pkg = decodeIstr(dec, strings)
		ev.Device = decodeDev(dec, table)
		ev.Fraud = dec.F64()
	case KindInstallBatch:
		ev.Pkg = decodeIstr(dec, strings)
		ev.Fraud = dec.F64()
		n := dec.Uvarint()
		if dec.Err() == nil && n > uint64(dec.Remaining()) {
			return fmt.Errorf("%w: install batch count %d", ErrFrame, n)
		}
		for i := uint64(0); i < n && dec.Err() == nil; i++ {
			ev.Devices = append(ev.Devices, decodeDev(dec, table))
		}
		ev.N = int64(len(ev.Devices))
	case KindPostback:
		ev.Offer = decodeIstr(dec, strings)
		ev.PostEvent = dec.U8()
		ev.Certified = dec.Bool()
	case KindCertifyBatch:
		ev.Offer = decodeIstr(dec, strings)
		ev.N = int64(dec.Uvarint())
	case KindSession:
		ev.Pkg = decodeIstr(dec, strings)
		ev.N = int64(dec.Uvarint())
		ev.Seconds = int64(dec.Uvarint())
	case KindPurchase:
		ev.Pkg = decodeIstr(dec, strings)
		ev.USD = dec.F64()
	case KindSettle:
		ev.Offer = decodeIstr(dec, strings)
		ev.N = int64(dec.Uvarint())
		ev.Batch = dec.Bool()
		ev.Gross = dec.F64()
		ev.AffCut = dec.F64()
		ev.UserPayout = dec.F64()
		ev.DevAcct = decodeIstr(dec, strings)
		ev.IIPAcct = decodeIstr(dec, strings)
		ev.AffAcct = decodeIstr(dec, strings)
		ev.UserAcct = decodeIstr(dec, strings)
	case KindEnforce:
		ev.Pkg = decodeIstr(dec, strings)
		ev.N = int64(dec.Uvarint())
	case KindChart:
		ev.Chart = dec.Str()
		n := dec.Uvarint()
		if dec.Err() == nil && n > uint64(dec.Remaining()) {
			return fmt.Errorf("%w: chart entry count %d", ErrFrame, n)
		}
		for i := uint64(0); i < n && dec.Err() == nil; i++ {
			ev.Entries = append(ev.Entries, playstore.ChartEntry{
				Rank:    int(dec.Varint()),
				Package: decodeIstr(dec, strings),
				Score:   dec.F64(),
			})
		}
	case KindDayEnd:
		ev.Day = dates.Date(dec.Varint())
		ev.CumOrganic = int64(dec.Uvarint())
		ev.CumIncent = int64(dec.Uvarint())
		ev.CumCertified = int64(dec.Uvarint())
		ev.CumRevenue = dec.F64()
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrFrame, uint8(k))
	}
	if err := dec.Done(); err != nil {
		return fmt.Errorf("%w: decoding %s: %v", ErrFrame, k, err)
	}
	return nil
}

// decodeHeader parses a KindHeader payload.
func decodeHeader(payload []byte) (Header, error) {
	dec := binenc.NewDec(payload)
	h := Header{
		Version:      uint32(dec.Uvarint()),
		Seed:         dec.U64(),
		WindowStart:  dates.Date(dec.Varint()),
		WindowEnd:    dates.Date(dec.Varint()),
		MediatorName: dec.Str(),
		FeePerUser:   dec.F64(),
	}
	if err := dec.Done(); err != nil {
		return Header{}, fmt.Errorf("%w: decoding header: %v", ErrFrame, err)
	}
	if h.Version < minReadVersion || h.Version > Version {
		return Header{}, fmt.Errorf("stream: unsupported run-log version %d", h.Version)
	}
	return h, nil
}

// decodeBase parses a KindBase payload.
func decodeBase(payload []byte) (Base, error) {
	dec := binenc.NewDec(payload)
	b := Base{Store: dec.Blob(), Ledger: dec.Blob(), Mediator: dec.Blob()}
	n := dec.Uvarint()
	if dec.Err() == nil && n > uint64(dec.Remaining()) {
		return Base{}, fmt.Errorf("%w: device table of %d entries", ErrFrame, n)
	}
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		b.Devices = append(b.Devices, dec.Str())
	}
	n = dec.Uvarint()
	if dec.Err() == nil && n > uint64(dec.Remaining()) {
		return Base{}, fmt.Errorf("%w: string table of %d entries", ErrFrame, n)
	}
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		b.Strings = append(b.Strings, dec.Str())
	}
	if err := dec.Done(); err != nil {
		return Base{}, fmt.Errorf("%w: decoding base snapshot: %v", ErrFrame, err)
	}
	return b, nil
}
