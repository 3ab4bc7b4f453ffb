package obs

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// WritePrometheus renders the aggregator's state in the Prometheus text
// exposition format (hand-rolled; this module takes no dependencies): one
// walk of seriesTable, families in table order, labels in tier/flow index
// order, so scrapes diff cleanly. HELP and TYPE are written once per family,
// ahead of its first sample, and name the bare family.
func (l *Live) WritePrometheus(w io.Writer) error {
	s := l.snapshot()
	buf := scrapeBufs.Get().(*[]byte)
	b := (*buf)[:0]
	var scratch [32]byte
	for i, r := range seriesTable {
		start := len(b)
		if i == 0 || seriesTable[i-1].family != r.family {
			b = append(r.appendName(append(b, "# HELP "...), " "), r.help...)
			b = append(r.appendName(append(b, "\n# TYPE "...), " "), r.typ...)
			b = append(b, '\n')
		}
		if r.vector != nil {
			head := len(b)
			if b = r.vector(b, r, &s); len(b) == head {
				b = b[:start]
			}
			continue
		}
		labels := append(scratch[:0], r.labels...)
		if r.isFloat() {
			b = appendSample(b, r, "", labels, s.vals[i].f)
		} else {
			b = appendSample(b, r, "", labels, s.vals[i].i)
		}
	}
	_, err := w.Write(b)
	*buf = b
	scrapeBufs.Put(buf)
	return err
}

// scrapeBufs recycles the exposition buffers: a daemon is scraped every few
// seconds for the same ~20 KB.
var scrapeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Handler returns the live-introspection mux over l:
//
//	/metrics        Prometheus text exposition
//	/healthz        threshold health report (200 ok / 503 degraded)
//	/debug/pprof/*  the net/http/pprof suite
//
// The health evaluator uses DefaultHealthConfig; servers that want
// custom thresholds (the resident daemon does) mount their own
// NewHealth handler at /healthz on a wrapping mux — the more specific
// pattern wins.
func Handler(l *Live) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = l.WritePrometheus(w)
	})
	mux.Handle("/healthz", NewHealth(l, DefaultHealthConfig()))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr (e.g. ":9090", or ":0" to pick a free port), serves
// Handler(l) on it for the life of the process, and returns the bound
// address.
func Serve(addr string, l *Live) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := NewServer(Handler(l))
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}

// NewServer wraps h in an http.Server with the introspection endpoints'
// standard timeouts: a header-read deadline against slowloris clients
// and an idle deadline to shed dead keep-alives. No write timeout — the
// pprof profile and trace endpoints legitimately stream for 30 s or
// more.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
