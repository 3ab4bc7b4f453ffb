package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"tierscape/internal/sim"
)

// AttachSpec is the wire form of an attach command. The daemon package
// cannot build a sim.Config itself — that needs workload generators,
// tier layouts, corpora — so Spec is passed opaquely to the embedder's
// AttachBuilder (cmd/tierscape reuses its flag-driven builder there).
type AttachSpec struct {
	// Name is the handle all later commands address the workload by.
	Name string `json:"name"`
	// Spec is the embedder-defined workload description.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// AttachBuilder turns an AttachSpec into the sim.Config to attach.
type AttachBuilder func(AttachSpec) (sim.Config, error)

// HandlerConfig wires the HTTP surface to its embedder.
type HandlerConfig struct {
	// Build handles attach commands; without it attach over HTTP is
	// rejected (programmatic Attach still works).
	Build AttachBuilder
	// LoadConfig re-reads the daemon config for the reload command
	// (typically daemon.LoadConfig over the -daemon-config path).
	// Without it reload over HTTP is rejected.
	LoadConfig func() (Config, error)
	// Shutdown, when set, enables the shutdown command (the embedder
	// decides what a clean exit means — detach, summarize, stop).
	Shutdown func()
}

// ResultSummary is the wire form of a detached workload's sim.Result
// (the full result holds every op latency; the wire gets aggregates).
type ResultSummary struct {
	Workload string  `json:"workload"`
	Model    string  `json:"model"`
	Windows  int     `json:"windows"`
	Ops      int64   `json:"ops"`
	AvgTCO   float64 `json:"avg_tco"`
	FinalTCO float64 `json:"final_tco"`
	Faults   int64   `json:"faults"`
	// Err carries the stepper's mid-run failure when the workload
	// errored before detach; the aggregates then cover the windows that
	// did complete.
	Err string `json:"error,omitempty"`
}

// summarize flattens a sim.Result for the wire.
func summarize(r *sim.Result, stepErr error) ResultSummary {
	s := ResultSummary{
		Workload: r.WorkloadName,
		Model:    r.ModelName,
		Windows:  len(r.Windows),
		Ops:      r.Ops,
		AvgTCO:   r.AvgTCO,
		FinalTCO: r.FinalTCO,
		Faults:   r.Faults,
	}
	if stepErr != nil {
		s.Err = stepErr.Error()
	}
	return s
}

// commandRequest is the body of POST /command.
type commandRequest struct {
	// Op selects the command: attach, detach, set-alpha, force-compact,
	// reload, barrier, shutdown.
	Op string `json:"op"`
	// Name addresses a workload (attach, detach, set-alpha,
	// force-compact).
	Name string `json:"name,omitempty"`
	// Alpha is the new trade-off knob for set-alpha.
	Alpha *float64 `json:"alpha,omitempty"`
	// Spec is the embedder-defined workload description for attach.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// maxCommandBody bounds a POST /command body. No command decodes more
// than a few hundred bytes plus the embedder's attach spec; a larger body
// is refused with 413 before it is buffered.
const maxCommandBody = 1 << 20

// NewHandler returns the daemon's runtime-command mux:
//
//	POST /command  {"op": ..., ...} → {"ok": true, ...} | {"error": ...}
//	               (bodies over 1 MiB → 413)
//	GET  /status   daemon Status as JSON
//
// It is mounted next to the obs introspection mux on -metrics-addr.
func NewHandler(d *Daemon, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
			return
		}
		s, err := d.Status()
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, http.StatusOK, s)
	})
	mux.HandleFunc("/command", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		var req commandRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCommandBody)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, fmt.Errorf("bad command body: %w", err))
			return
		}
		resp, err := dispatch(d, hc, req)
		if err != nil {
			status := http.StatusBadRequest
			if err == ErrStopped {
				status = http.StatusServiceUnavailable
			}
			httpError(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	return mux
}

// dispatch executes one wire command against the daemon.
func dispatch(d *Daemon, hc HandlerConfig, req commandRequest) (map[string]any, error) {
	ok := map[string]any{"ok": true, "op": req.Op}
	switch req.Op {
	case "attach":
		if hc.Build == nil {
			return nil, fmt.Errorf("daemon: attach over HTTP is not configured")
		}
		cfg, err := hc.Build(AttachSpec{Name: req.Name, Spec: req.Spec})
		if err != nil {
			return nil, err
		}
		if err := d.Attach(req.Name, cfg); err != nil {
			return nil, err
		}
		return ok, nil
	case "detach":
		res, stepErr := d.Detach(req.Name)
		if res == nil {
			return nil, stepErr
		}
		ok["result"] = summarize(res, stepErr)
		return ok, nil
	case "set-alpha":
		if req.Alpha == nil {
			return nil, fmt.Errorf("daemon: set-alpha requires an alpha field")
		}
		if err := d.SetAlpha(req.Name, *req.Alpha); err != nil {
			return nil, err
		}
		return ok, nil
	case "force-compact":
		cs, err := d.ForceCompact(req.Name)
		if err != nil {
			return nil, err
		}
		ok["compacted"] = cs
		return ok, nil
	case "reload":
		if hc.LoadConfig == nil {
			return nil, fmt.Errorf("daemon: reload over HTTP is not configured")
		}
		cfg, err := hc.LoadConfig()
		if err != nil {
			return nil, err
		}
		if err := d.Reload(cfg); err != nil {
			return nil, err
		}
		return ok, nil
	case "barrier":
		if err := d.Barrier(); err != nil {
			return nil, err
		}
		return ok, nil
	case "shutdown":
		if hc.Shutdown == nil {
			return nil, fmt.Errorf("daemon: shutdown over HTTP is not configured")
		}
		hc.Shutdown()
		return ok, nil
	default:
		return nil, fmt.Errorf("daemon: unknown op %q", req.Op)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
