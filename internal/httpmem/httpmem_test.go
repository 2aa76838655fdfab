package httpmem

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

func get(t *testing.T, c *http.Client, url string) (*http.Response, string) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestUnknownHostErrors(t *testing.T) {
	var tr Transport
	base := tr.Serve(http.NotFoundHandler())
	c := &http.Client{Transport: &tr}
	if _, err := c.Get("http://elsewhere.invalid/x"); err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Errorf("unknown host: err %v, want a no-handler error", err)
	}
	if _, err := c.Get(base + "/x"); err != nil {
		t.Errorf("registered host: %v", err)
	}
	if other := tr.Serve(http.NotFoundHandler()); other == base {
		t.Errorf("two handlers share base URL %s", base)
	}
}

func TestStatusHeadersAndBodyPassThrough(t *testing.T) {
	var tr Transport
	base := tr.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Wall", "fyber")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTeapot)
		w.Header().Set("X-Late", "dropped") // after the status: not sent
		io.WriteString(w, `{"a":`)
		io.WriteString(w, `1}`)
	}))
	resp, body := get(t, &http.Client{Transport: &tr}, base+"/")
	if resp.StatusCode != http.StatusTeapot || resp.Status != "418 I'm a teapot" {
		t.Errorf("status %d %q", resp.StatusCode, resp.Status)
	}
	if got := resp.Header.Get("X-Wall"); got != "fyber" {
		t.Errorf("X-Wall %q", got)
	}
	if got := resp.Header.Get("X-Late"); got != "" {
		t.Errorf("header set after WriteHeader was sent: %q", got)
	}
	if body != `{"a":1}` || resp.ContentLength != int64(len(body)) {
		t.Errorf("body %q, length %d", body, resp.ContentLength)
	}

	// A handler that writes nothing answers 200; http.Error's status,
	// headers and body pass through.
	base = tr.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fail" {
			http.Error(w, "wall down", http.StatusInternalServerError)
		}
	}))
	c := &http.Client{Transport: &tr}
	if resp, body := get(t, c, base+"/empty"); resp.StatusCode != http.StatusOK || body != "" {
		t.Errorf("empty handler: %d %q", resp.StatusCode, body)
	}
	resp, body = get(t, c, base+"/fail")
	if resp.StatusCode != http.StatusInternalServerError || body != "wall down\n" ||
		resp.Header.Get("X-Content-Type-Options") != "nosniff" {
		t.Errorf("http.Error: %d %q %v", resp.StatusCode, body, resp.Header)
	}
}

func TestPathValueReachesHandlerAndCallerUnchanged(t *testing.T) {
	var tr Transport
	mux := http.NewServeMux()
	var seen *http.Request
	mux.HandleFunc("GET /apps/{pkg}", func(w http.ResponseWriter, r *http.Request) {
		seen = r
		io.WriteString(w, r.PathValue("pkg")+" "+r.RequestURI)
	})
	base := tr.Serve(mux)
	req, err := http.NewRequest(http.MethodGet, base+"/apps/com.adv.one?day=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	before := *req
	beforeURL := *req.URL
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "com.adv.one /apps/com.adv.one?day=3" {
		t.Errorf("handler saw %q", body)
	}
	if seen == req {
		t.Error("handler ran on the caller's request, not a clone")
	}
	if req.PathValue("pkg") != "" || req.Pattern != "" || req.RequestURI != "" {
		t.Errorf("caller's request changed: pkg %q, pattern %q, RequestURI %q", req.PathValue("pkg"), req.Pattern, req.RequestURI)
	}
	if !reflect.DeepEqual(*req.URL, beforeURL) || req.Host != before.Host || !reflect.DeepEqual(req.Header, before.Header) {
		t.Error("caller's URL, host or header changed")
	}
	if resp.Request != req {
		t.Error("response does not point at the caller's request")
	}
}

// trackedBody records whether it was closed.
type trackedBody struct {
	io.Reader
	closed bool
}

func (b *trackedBody) Close() error { b.closed = true; return nil }

func TestPostBodyReachesHandlerAndIsClosed(t *testing.T) {
	var tr Transport
	var got []byte
	base := tr.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	body := &trackedBody{Reader: strings.NewReader(`{"kind":"open"}`)}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/telemetry", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNoContent || string(got) != `{"kind":"open"}` {
		t.Errorf("status %d, handler read %q", resp.StatusCode, got)
	}
	if !body.closed {
		t.Error("request body not closed after the round trip")
	}

	// The body is closed on the error path too, and a bodiless request
	// reaches the handler with a non-nil body.
	failed := &trackedBody{Reader: bytes.NewReader(nil)}
	req, _ = http.NewRequest(http.MethodPost, "http://elsewhere.invalid/", failed)
	if _, err := tr.RoundTrip(req); err == nil || !failed.closed {
		t.Errorf("unknown host: err %v, body closed %v", err, failed.closed)
	}
	base = tr.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body == nil {
			t.Error("handler got a nil body")
		}
	}))
	req, _ = http.NewRequest(http.MethodGet, base+"/", nil)
	req.Body = nil
	if _, err := tr.RoundTrip(req); err != nil {
		t.Fatal(err)
	}
}
