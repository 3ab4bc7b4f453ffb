// HTTP command-surface smoke test: the full command vocabulary over a
// real httptest server, plus the malformed-request paths.
package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tierscape/internal/sim"
)

// httpHarness is a daemon behind its HTTP handler with a fake clock.
type httpHarness struct {
	d        *Daemon
	clk      *FakeClock
	srv      *httptest.Server
	shutdown int
}

func newHTTPHarness(t *testing.T) *httpHarness {
	t.Helper()
	h := &httpHarness{}
	h.clk = NewFakeClock()
	var err error
	h.d, err = New(Config{TickEvery: time.Second, MaxWorkloads: 4}, h.clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.d.Stop)
	h.srv = httptest.NewServer(NewHandler(h.d, HandlerConfig{
		// The test builder ignores the opaque spec and serves the stock
		// config; cmd/tierscape installs its flag-driven builder here.
		Build: func(spec AttachSpec) (sim.Config, error) {
			if len(spec.Spec) > 0 && !json.Valid(spec.Spec) {
				return sim.Config{}, fmt.Errorf("invalid spec")
			}
			return testSimConfig(t), nil
		},
		LoadConfig: func() (Config, error) {
			return Config{TickEvery: 5 * time.Second, MaxWorkloads: 9}, nil
		},
		Shutdown: func() { h.shutdown++ },
	}))
	t.Cleanup(h.srv.Close)
	return h
}

func (h *httpHarness) command(t *testing.T, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(h.srv.URL+"/command", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("non-JSON response %q: %v", raw, err)
	}
	return resp.StatusCode, out
}

func TestHTTPCommandSurface(t *testing.T) {
	h := newHTTPHarness(t)

	// Attach, run three windows, inspect status.
	if code, out := h.command(t, `{"op":"attach","name":"kv"}`); code != http.StatusOK || out["ok"] != true {
		t.Fatalf("attach: %d %v", code, out)
	}
	h.clk.StepN(3)
	if err := h.d.Barrier(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(h.srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Ticks != 3 || len(st.Workloads) != 1 ||
		st.Workloads[0].Name != "kv" || st.Workloads[0].Windows != 3 {
		t.Fatalf("status: %+v", st)
	}
	if st.Config.TickEvery != time.Second {
		t.Fatalf("status config did not round-trip through JSON: %+v", st.Config)
	}

	// α change, forced compaction, config reload.
	if code, out := h.command(t, `{"op":"set-alpha","name":"kv","alpha":0.6}`); code != http.StatusOK {
		t.Fatalf("set-alpha: %d %v", code, out)
	}
	if code, out := h.command(t, `{"op":"force-compact","name":"kv"}`); code != http.StatusOK || out["compacted"] == nil {
		t.Fatalf("force-compact: %d %v", code, out)
	}
	if code, out := h.command(t, `{"op":"reload"}`); code != http.StatusOK {
		t.Fatalf("reload: %d %v", code, out)
	}
	if s, _ := h.d.Status(); s.Config.MaxWorkloads != 9 {
		t.Fatalf("reload over HTTP did not take: %+v", s.Config)
	}

	// Detach returns a result summary for the three windows.
	code, out := h.command(t, `{"op":"detach","name":"kv"}`)
	if code != http.StatusOK {
		t.Fatalf("detach: %d %v", code, out)
	}
	res, ok := out["result"].(map[string]any)
	if !ok || res["windows"].(float64) != 3 || res["workload"] != "Memcached/YCSB" {
		t.Fatalf("detach summary: %v", out["result"])
	}

	// Barrier and shutdown round-trip.
	if code, _ := h.command(t, `{"op":"barrier"}`); code != http.StatusOK {
		t.Fatalf("barrier: %d", code)
	}
	if code, _ := h.command(t, `{"op":"shutdown"}`); code != http.StatusOK || h.shutdown != 1 {
		t.Fatalf("shutdown: %d (called %d times)", code, h.shutdown)
	}
}

func TestHTTPCommandErrors(t *testing.T) {
	h := newHTTPHarness(t)
	cases := []struct {
		name, body string
		wantCode   int
		wantErr    string
	}{
		{"bad json", `{"op"`, http.StatusBadRequest, "bad command body"},
		{"unknown op", `{"op":"explode"}`, http.StatusBadRequest, "unknown op"},
		{"detach unknown", `{"op":"detach","name":"ghost"}`, http.StatusBadRequest, "not attached"},
		{"set-alpha missing alpha", `{"op":"set-alpha","name":"kv"}`, http.StatusBadRequest, "requires an alpha"},
		{"set-alpha unknown workload", `{"op":"set-alpha","name":"ghost","alpha":0.5}`, http.StatusBadRequest, "not attached"},
		{"force-compact unknown", `{"op":"force-compact","name":"ghost"}`, http.StatusBadRequest, "not attached"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := h.command(t, tc.body)
			if code != tc.wantCode {
				t.Fatalf("status %d, want %d (%v)", code, tc.wantCode, out)
			}
			msg, _ := out["error"].(string)
			if !bytes.Contains([]byte(msg), []byte(tc.wantErr)) {
				t.Fatalf("error %q does not contain %q", msg, tc.wantErr)
			}
		})
	}

	// A body over the 1 MiB bound is refused as too large, not parsed; one
	// just under it is an ordinary command.
	pad := func(n int) string { return `{"op":"barrier","name":"` + strings.Repeat("x", n) + `"}` }
	if code, out := h.command(t, pad(2<<20)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB command body: status %d, want 413 (%v)", code, out)
	}
	if code, out := h.command(t, pad(1<<20-64)); code != http.StatusOK {
		t.Fatalf("command body just under 1 MiB: status %d, want 200 (%v)", code, out)
	}

	// Wrong methods.
	resp, err := http.Get(h.srv.URL + "/command")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /command = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(h.srv.URL+"/status", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /status = %d, want 405", resp.StatusCode)
	}
}
