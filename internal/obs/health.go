package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// HealthConfig holds the /healthz evaluator's thresholds. A zero or
// negative threshold disables its check. The zero value disables
// everything; DefaultHealthConfig returns the stock thresholds.
type HealthConfig struct {
	// MaxPressure bounds the last window's PSI-style some-stall
	// fraction (WindowSnapshot.Pressure).
	MaxPressure float64
	// MaxThrashRegions bounds the last window's count of regions over
	// the ping-pong thrash threshold.
	MaxThrashRegions int
	// MaxStormBytesPerSec bounds the last window's migration traffic
	// rate (the storm gauge).
	MaxStormBytesPerSec float64
	// MaxFallbackRate bounds cumulative solver fallbacks per recorded
	// window.
	MaxFallbackRate float64
}

// DefaultHealthConfig returns generous stock thresholds: healthy unless
// the app spends a quarter of its time stalled, many regions ping-pong,
// migration traffic exceeds 8 GiB/s of virtual time, or most solves hit
// the fallback.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{
		MaxPressure:         0.25,
		MaxThrashRegions:    64,
		MaxStormBytesPerSec: 8 << 30,
		MaxFallbackRate:     0.5,
	}
}

// HealthCheck is one threshold evaluation inside a health report.
type HealthCheck struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	OK        bool    `json:"ok"`
}

// HealthTransition records one ok↔degraded state change.
type HealthTransition struct {
	// To is the state entered: "ok" or "degraded".
	To string `json:"to"`
	// Reasons lists the failing check names ("degraded" only).
	Reasons []string `json:"reasons,omitempty"`
	// At is the wall-clock evaluation time. Health lives outside the
	// deterministic channel, so reading the real clock is fine here.
	At time.Time `json:"at"`
}

// HealthStatus is the JSON body /healthz returns.
type HealthStatus struct {
	Status      string             `json:"status"` // "ok" or "degraded"
	Windows     int64              `json:"windows"`
	Checks      []HealthCheck      `json:"checks"`
	Transitions []HealthTransition `json:"transitions,omitempty"`
}

// maxHealthTransitions bounds the transition history kept for reports.
const maxHealthTransitions = 32

// Health evaluates an aggregator's state against thresholds and serves
// the /healthz endpoint: HTTP 200 with a JSON report while every check
// passes, 503 once any fails. State transitions are recorded as events —
// a bounded in-memory history on the report plus the Live aggregator's
// tierscape_health_state gauge and tierscape_health_transitions_total
// counters, so scrapers see flaps even between probes.
type Health struct {
	live *Live
	cfg  HealthConfig

	mu          sync.Mutex
	degraded    bool
	transitions []HealthTransition
}

// NewHealth returns an evaluator over l. Pass DefaultHealthConfig() for
// stock thresholds.
func NewHealth(l *Live, cfg HealthConfig) *Health {
	return &Health{live: l, cfg: cfg}
}

// Eval computes the current health report and records any state
// transition it observes. Safe for concurrent use.
func (h *Health) Eval() HealthStatus {
	s := h.live.snapshot()
	windows := s.vals[windowsSeries.idx].i
	st := HealthStatus{Status: "ok", Windows: windows}
	check := func(name string, value, threshold float64) {
		if threshold <= 0 {
			return // disabled
		}
		c := HealthCheck{Name: name, Value: value, Threshold: threshold, OK: value <= threshold}
		st.Checks = append(st.Checks, c)
	}
	check("pressure", s.last.Pressure, h.cfg.MaxPressure)
	check("thrash_regions", float64(s.last.ThrashRegions), float64(h.cfg.MaxThrashRegions))
	check("storm_bytes_per_sec", s.last.StormBytesPerSec, h.cfg.MaxStormBytesPerSec)
	var fallbackRate float64
	if windows > 0 {
		fallbackRate = float64(s.vals[solverFallbacksSeries.idx].i) / float64(windows)
	}
	check("solver_fallback_rate", fallbackRate, h.cfg.MaxFallbackRate)

	var reasons []string
	for _, c := range st.Checks {
		if !c.OK {
			reasons = append(reasons, c.Name)
		}
	}
	degraded := len(reasons) > 0
	if degraded {
		st.Status = "degraded"
	}

	h.mu.Lock()
	if degraded != h.degraded {
		h.degraded = degraded
		tr := HealthTransition{To: st.Status, Reasons: reasons, At: time.Now().UTC()}
		h.transitions = append(h.transitions, tr)
		if len(h.transitions) > maxHealthTransitions {
			h.transitions = h.transitions[len(h.transitions)-maxHealthTransitions:]
		}
	}
	st.Transitions = append([]HealthTransition(nil), h.transitions...)
	h.mu.Unlock()

	h.live.setHealth(degraded)
	return st
}

// ServeHTTP implements http.Handler: 200 while healthy, 503 degraded.
func (h *Health) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	st := h.Eval()
	w.Header().Set("Content-Type", "application/json")
	if st.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}
