package iip

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"

	"repro/internal/dates"
)

// WireOffer is the on-the-wire JSON representation of a wall offer as an
// affiliate app receives it. Payouts are expressed in the affiliate app's
// reward points — different affiliate apps use different point systems,
// which is why the monitoring pipeline has to normalize (Section 4.1).
type WireOffer struct {
	OfferID     string `json:"offer_id"`
	AppPackage  string `json:"app_package"`
	StoreURL    string `json:"store_url"`
	Description string `json:"description"`
	Points      int64  `json:"points"`
}

// WallResponse is the offer-wall JSON document.
type WallResponse struct {
	Network   string      `json:"network"`
	Affiliate string      `json:"affiliate"`
	Country   string      `json:"country"`
	Offers    []WireOffer `json:"offers"`
}

// Server exposes a platform's offer wall over HTTP. Affiliate apps fetch
// GET /offerwall?affiliate=<pkg>&country=<cc>&day=<n>; the monitoring
// proxy intercepts exactly this traffic.
type Server struct {
	platform *Platform
	// pointRates maps an integrated affiliate app's package name to its
	// points-per-USD redemption rate, configured when the affiliate
	// signs up with the platform's SDK.
	pointRates map[string]float64
}

// NewServer wraps a platform with its affiliate point-rate table.
func NewServer(p *Platform, pointRates map[string]float64) *Server {
	rates := make(map[string]float64, len(pointRates))
	for k, v := range pointRates {
		rates[k] = v
	}
	return &Server{platform: p, pointRates: rates}
}

// Handler returns the HTTP handler for the offer wall.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /offerwall", s.handleWall)
	mux.HandleFunc("GET /health", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

func (s *Server) handleWall(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	affiliate := q.Get("affiliate")
	rate, ok := s.pointRates[affiliate]
	if !ok {
		http.Error(w, "unknown affiliate", http.StatusForbidden)
		return
	}
	country := q.Get("country")
	if country == "" {
		country = "USA"
	}
	day := dates.StudyStart
	if v := q.Get("day"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad day", http.StatusBadRequest)
			return
		}
		day = dates.Date(n)
	}
	// Walls paginate; the affiliate app UI loads more offers as the user
	// (or the fuzzer) scrolls. offset/limit expose that paging.
	offset, limit := 0, 0
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad offset", http.StatusBadRequest)
			return
		}
		offset = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	active := s.platform.wallPage(day, country, offset, limit)
	resp := WallResponse{
		Network:   s.platform.Name,
		Affiliate: affiliate,
		Country:   country,
		Offers:    make([]WireOffer, 0, len(active)),
	}
	for _, o := range active {
		resp.Offers = append(resp.Offers, WireOffer{
			OfferID:     o.OfferID,
			AppPackage:  o.AppPackage,
			StoreURL:    o.StoreURL,
			Description: o.Description,
			Points:      int64(math.Round(o.PayoutUSD * rate)),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		// Connection-level failure; nothing more to do.
		return
	}
}
