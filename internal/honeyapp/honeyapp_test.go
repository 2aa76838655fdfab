package honeyapp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newBackend(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, &Client{BaseURL: srv.URL}
}

func devInfo() DeviceInfo {
	return DeviceInfo{
		Build:         "samsung/SM-G960F/9/1234567",
		SSIDHash:      "ssid:abcdef0123456789",
		IPBlock:       "203.0.113.77",
		ASNName:       "carrier",
		InstalledApps: []string{"eu.gcashapp", "com.other.app"},
	}
}

func TestTruncateIPv4(t *testing.T) {
	cases := []struct{ in, want string }{
		{"203.0.113.77", "203.0.113"},
		{"10.1.2.3", "10.1.2"},
		{"203.0.113", "203.0.113"}, // already truncated
		{"not-an-ip", "not-an-ip"},
	}
	for _, c := range cases {
		if got := TruncateIPv4(c.in); got != c.want {
			t.Errorf("TruncateIPv4(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestUploadAndCollect(t *testing.T) {
	s, c := newBackend(t)
	app := Install(c, "install-1", "Fyber", devInfo())
	if err := app.Open(0); err != nil {
		t.Fatal(err)
	}
	if err := app.ClickRecord(1); err != nil {
		t.Fatal(err)
	}
	events := s.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Kind != KindOpen || events[1].Kind != KindRecordClick {
		t.Errorf("kinds = %s, %s", events[0].Kind, events[1].Kind)
	}
	if events[0].IIP != "Fyber" || events[0].InstallID != "install-1" {
		t.Errorf("attribution wrong: %+v", events[0])
	}
}

func TestPrivacyTransformApplied(t *testing.T) {
	s, c := newBackend(t)
	app := Install(c, "i1", "RankApp", devInfo())
	if err := app.Open(0); err != nil {
		t.Fatal(err)
	}
	ev := s.Events()[0]
	if ev.Device.IPBlock != "203.0.113" {
		t.Errorf("IP not truncated: %q", ev.Device.IPBlock)
	}
	if !strings.HasPrefix(ev.Device.SSIDHash, "ssid:") {
		t.Errorf("SSID not hashed: %q", ev.Device.SSIDHash)
	}
}

func TestServerSideTruncationDefense(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// A buggy/malicious client posts a full IP directly.
	body := `{"install_id":"x","kind":"open","device":{"ip_block":"198.51.100.42"}}`
	resp, err := http.Post(srv.URL+"/v1/telemetry", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := s.Events()[0].Device.IPBlock; got != "198.51.100" {
		t.Errorf("server stored full IP: %q", got)
	}
}

func TestUploadValidation(t *testing.T) {
	_, c := newBackend(t)
	err := c.Upload(Event{InstallID: "", Kind: KindOpen})
	if err == nil {
		t.Error("missing install ID should be rejected")
	}
	err = c.Upload(Event{InstallID: "x", Kind: "weird"})
	if err == nil {
		t.Error("unknown kind should be rejected")
	}
}

func TestBadJSONRejected(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/telemetry", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	if s.NumEvents() != 0 {
		t.Error("bad event stored")
	}
}

func TestUploadConnectionError(t *testing.T) {
	c := &Client{BaseURL: "http://127.0.0.1:1"}
	if err := c.Upload(Event{InstallID: "x", Kind: KindOpen}); err == nil {
		t.Error("unreachable backend should error")
	}
}

func TestNoHardwareIdentifierFields(t *testing.T) {
	// The ethics section promises no IMEI/IMSI collection; the schema
	// must not even have such fields. Guard via JSON round trip.
	ev := Event{InstallID: "x", Kind: KindOpen, Device: devInfo()}
	b, err := jsonMarshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"imei", "imsi", "serial"} {
		if strings.Contains(strings.ToLower(string(b)), banned) {
			t.Errorf("telemetry leaks %s", banned)
		}
	}
}

func jsonMarshal(ev Event) ([]byte, error) {
	return json.Marshal(ev)
}

func TestOversizedUploadRefused(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(installID string) int {
		t.Helper()
		body := `{"install_id":"` + installID + `","kind":"open"}`
		resp, err := http.Post(srv.URL+"/v1/telemetry", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	overhead := len(`{"install_id":"","kind":"open"}`)
	if code := post(strings.Repeat("x", maxUploadBytes+1-overhead)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("upload one byte over the bound: status %d, want 413", code)
	}
	if n := s.NumEvents(); n != 0 {
		t.Errorf("oversized upload stored %d events", n)
	}
	if code := post(strings.Repeat("x", maxUploadBytes-overhead)); code != http.StatusNoContent {
		t.Errorf("upload at the bound: status %d, want 204", code)
	}
}
