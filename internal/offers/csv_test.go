package offers

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/randx"
)

func sampleOffers(n int) []Offer {
	g := NewGrammar(randx.New(5))
	out := make([]Offer, n)
	for i := range out {
		tp := Types[i%len(Types)]
		out[i] = Offer{
			ID:          string(rune('a'+i%26)) + "-offer",
			IIP:         "Fyber",
			AppPackage:  "com.app.x",
			Description: g.Describe(tp, false),
			PayoutUSD:   0.06 * float64(i+1),
			FirstSeen:   dates.StudyStart,
			LastSeen:    dates.StudyStart.AddDays(i),
			Countries:   []string{"USA", "Germany"},
		}
	}
	return out
}

func TestCSVRoundTrip(t *testing.T) {
	in := sampleOffers(8)
	var b strings.Builder
	if err := WriteCSV(&b, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(got), len(in))
	}
	for i := range in {
		a, b := in[i], got[i]
		if a.ID != b.ID || a.IIP != b.IIP || a.AppPackage != b.AppPackage ||
			a.Description != b.Description || a.FirstSeen != b.FirstSeen ||
			a.LastSeen != b.LastSeen {
			t.Errorf("offer %d mismatch: %+v vs %+v", i, a, b)
		}
		if diff := a.PayoutUSD - b.PayoutUSD; diff > 1e-4 || diff < -1e-4 {
			t.Errorf("offer %d payout %g vs %g", i, a.PayoutUSD, b.PayoutUSD)
		}
		if len(a.Countries) != len(b.Countries) {
			t.Errorf("offer %d countries %v vs %v", i, a.Countries, b.Countries)
		}
	}
}

func TestCSVCommasAndQuotesInDescriptions(t *testing.T) {
	in := []Offer{{
		ID: "x", IIP: "Fyber", AppPackage: "a.b",
		Description: `Install, register, and "win" big`,
	}}
	var b strings.Builder
	if err := WriteCSV(&b, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Description != in[0].Description {
		t.Errorf("description mangled: %q", got[0].Description)
	}
}

func TestCSVNoGroundTruthLeak(t *testing.T) {
	in := sampleOffers(4)
	in[0].Truth = Purchase
	in[0].TruthArbitrage = true
	var b strings.Builder
	if err := WriteCSV(&b, in); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(b.String(), "\n", 2)[0]
	if strings.Contains(header, "truth") || strings.Contains(header, "arbitrage") {
		t.Errorf("ground truth leaked into interchange format: %s", header)
	}
	got, _ := ReadCSV(strings.NewReader(b.String()))
	if got[0].Truth != NoActivity || got[0].TruthArbitrage {
		t.Error("truth fields should come back zero")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",      // no header
		"a,b\n", // wrong column count
		strings.Replace(validCSV(t), "offer_id", "offer_identifier", 1), // wrong column name
		strings.Replace(validCSV(t), "0.0600", "not-a-number", 1),       // bad payout
		strings.Replace(validCSV(t), "0.0600", "0.06001", 1),            // a payout past the format's 4 decimals
		strings.Replace(validCSV(t), "0.0600", "NaN", 1),                // not a number
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func validCSV(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := WriteCSV(&b, sampleOffers(1)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCSVEmptyDataset(t *testing.T) {
	var b strings.Builder
	if err := WriteCSV(&b, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty dataset round trip: %v", got)
	}
}

// FuzzReadCSV: ReadCSV never panics on arbitrary input, and whatever it
// accepts, written again by WriteCSV, reads back equal. The seed is a
// dataset WriteCSV wrote that reads back as the offers it was written
// from.
func FuzzReadCSV(f *testing.F) {
	in := sampleOffers(6)
	for i := range in {
		in[i].PayoutUSD = math.Round(in[i].PayoutUSD*1e4) / 1e4 // the format keeps 4 decimals
	}
	in[1].Countries = nil
	var seed strings.Builder
	if err := WriteCSV(&seed, in); err != nil {
		f.Fatal(err)
	}
	if got, err := ReadCSV(strings.NewReader(seed.String())); err != nil || !reflect.DeepEqual(got, in) {
		f.Fatalf("the seed dataset does not round-trip: %v\n got %+v\nwant %+v", err, got, in)
	}
	f.Add(seed.String())
	f.Add(strings.Replace(seed.String(), "0.0600", "0.00001", 1))
	f.Add(strings.Join(csvHeader, ",") + "\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		var out strings.Builder
		if err := WriteCSV(&out, got); err != nil {
			t.Fatalf("writing an accepted dataset: %v", err)
		}
		again, err := ReadCSV(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("reading back an accepted dataset: %v\n%s", err, out.String())
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("an accepted dataset changed when written again:\n got %+v\nwant %+v", again, got)
		}
	})
}
