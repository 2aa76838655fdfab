// Package honeyapp implements the paper's purpose-built "voice memos"
// honey app and its telemetry backend: an instrumented app client that
// reports opens and record-button clicks together with device metadata,
// applying the ethics section's privacy transforms (hashed SSID, truncated
// IPv4, no hardware identifiers), and an HTTP collection server that
// stores the uploads for the Section 3 analyses.
package honeyapp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// Event kinds uploaded by the honey app. Telemetry is sent whenever the
// user opens the app or clicks the voice-memo record button.
const (
	KindOpen        = "open"
	KindRecordClick = "record_click"
)

// DeviceInfo is the device metadata attached to every upload. Fields
// mirror what the paper collects: build fingerprint, root and emulator
// signals, hashed WiFi SSID, the /24 of the public IPv4, ASN, and the list
// of installed packages. There is deliberately no IMEI/IMSI field.
type DeviceInfo struct {
	Build         string   `json:"build"`
	Rooted        bool     `json:"rooted"`
	Emulator      bool     `json:"emulator"`
	SSIDHash      string   `json:"ssid_hash"`
	IPBlock       string   `json:"ip_block"` // first three octets only
	ASNName       string   `json:"asn_name"`
	CloudASN      bool     `json:"cloud_asn"`
	InstalledApps []string `json:"installed_apps"`
}

// Event is one telemetry upload.
type Event struct {
	InstallID string `json:"install_id"`
	Kind      string `json:"kind"`
	// HourOffset is hours since the install campaign began; the honey
	// experiment uses it to measure delivery speed and retention.
	HourOffset int        `json:"hour_offset"`
	IIP        string     `json:"iip"` // attribution tag of the campaign
	Device     DeviceInfo `json:"device"`
}

// TruncateIPv4 drops the last octet of a dotted-quad address, implementing
// the paper's "we drop the last octet of the IPv4 address".
func TruncateIPv4(ip string) string {
	parts := strings.Split(ip, ".")
	if len(parts) != 4 {
		return ip
	}
	return strings.Join(parts[:3], ".")
}

// Server is the telemetry collection backend.
type Server struct {
	mu     sync.RWMutex
	events []Event
}

// NewServer returns an empty collection server.
func NewServer() *Server { return &Server{} }

// Handler returns the HTTP handler (POST /v1/telemetry).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/telemetry", s.handleUpload)
	return mux
}

// maxUploadBytes bounds one telemetry upload. The largest real event, a
// device listing its installed apps (at most 37), is 1,354 bytes on the
// 6,000-device 121-day study; a larger body is refused with 413.
const maxUploadBytes = 1 << 16

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var ev Event
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes)).Decode(&ev); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad event", code)
		return
	}
	if ev.InstallID == "" || (ev.Kind != KindOpen && ev.Kind != KindRecordClick) {
		http.Error(w, "invalid event", http.StatusBadRequest)
		return
	}
	// Server-side defense in depth: never store a full IPv4 even if a
	// buggy client sends one.
	ev.Device.IPBlock = TruncateIPv4(ev.Device.IPBlock)
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// Events returns a copy of all stored events.
func (s *Server) Events() []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Event(nil), s.events...)
}

// NumEvents returns the stored event count.
func (s *Server) NumEvents() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.events)
}

// Client uploads telemetry to the collection server.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// Upload posts one event; the client applies the IP truncation before the
// event leaves the device.
func (c *Client) Upload(ev Event) error {
	ev.Device.IPBlock = TruncateIPv4(ev.Device.IPBlock)
	body, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("honeyapp: encoding event: %w", err)
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Post(c.BaseURL+"/v1/telemetry", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("honeyapp: uploading event: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("honeyapp: upload rejected: status %d", resp.StatusCode)
	}
	return nil
}

// App is one installed instance of the honey app on a device. Its only
// functionality is the voice-memo record button; telemetry fires on every
// open and record click.
type App struct {
	InstallID string
	IIP       string
	Device    DeviceInfo
	client    *Client
}

// Install instantiates the app on a device.
func Install(client *Client, installID, iipName string, dev DeviceInfo) *App {
	return &App{InstallID: installID, IIP: iipName, Device: dev, client: client}
}

// Open reports an app open at the given hour offset.
func (a *App) Open(hour int) error {
	return a.client.Upload(Event{
		InstallID: a.InstallID, Kind: KindOpen, HourOffset: hour,
		IIP: a.IIP, Device: a.Device,
	})
}

// ClickRecord reports a record-button click at the given hour offset.
func (a *App) ClickRecord(hour int) error {
	return a.client.Upload(Event{
		InstallID: a.InstallID, Kind: KindRecordClick, HourOffset: hour,
		IIP: a.IIP, Device: a.Device,
	})
}
