package offers

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/dates"
)

// The paper's authors publicly shared their crawled offer dataset
// (github.com/shehrozef/IncentInstalls); WriteCSV/ReadCSV provide the
// equivalent interchange format for datasets produced by the monitoring
// pipeline.

// csvHeader is the column layout of the interchange format.
var csvHeader = []string{
	"offer_id", "iip", "app_package", "description",
	"payout_usd", "first_seen", "last_seen", "countries",
}

// WriteCSV serializes offers in the interchange format. Ground-truth
// fields are intentionally not exported — the shared dataset carries only
// what the pipeline observed.
func WriteCSV(w io.Writer, offers []Offer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("offers: writing header: %w", err)
	}
	for _, o := range offers {
		rec := []string{
			o.ID,
			o.IIP,
			o.AppPackage,
			o.Description,
			payoutText(o.PayoutUSD),
			strconv.Itoa(int(o.FirstSeen)),
			strconv.Itoa(int(o.LastSeen)),
			strings.Join(o.Countries, ";"),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("offers: writing %s: %w", o.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// payoutText renders a payout as the format keeps it: four decimals.
func payoutText(usd float64) string { return strconv.FormatFloat(usd, 'f', 4, 64) }

// ReadCSV parses a dataset written by WriteCSV. A payout the format
// cannot hold (more than four decimals, or not a number) is refused, so a
// dataset ReadCSV accepts is written back unchanged.
func ReadCSV(r io.Reader) ([]Offer, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("offers: reading header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("offers: header has %d columns, want %d", len(header), len(csvHeader))
	}
	for i, col := range csvHeader {
		if header[i] != col {
			return nil, fmt.Errorf("offers: column %d is %q, want %q", i, header[i], col)
		}
	}
	var out []Offer
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("offers: line %d: %w", line, err)
		}
		payout, err := strconv.ParseFloat(rec[4], 64)
		if kept, _ := strconv.ParseFloat(payoutText(payout), 64); err != nil || kept != payout {
			return nil, fmt.Errorf("offers: line %d: bad payout %q", line, rec[4])
		}
		first, err := strconv.Atoi(rec[5])
		if err != nil {
			return nil, fmt.Errorf("offers: line %d: bad first_seen %q", line, rec[5])
		}
		last, err := strconv.Atoi(rec[6])
		if err != nil {
			return nil, fmt.Errorf("offers: line %d: bad last_seen %q", line, rec[6])
		}
		var countries []string
		if rec[7] != "" {
			countries = strings.Split(rec[7], ";")
		}
		out = append(out, Offer{
			ID:          rec[0],
			IIP:         rec[1],
			AppPackage:  rec[2],
			Description: rec[3],
			PayoutUSD:   payout,
			FirstSeen:   dates.Date(first),
			LastSeen:    dates.Date(last),
			Countries:   countries,
		})
	}
	return out, nil
}
