// Package serve is the on-demand synthesis server the paper envisions a
// VDBMS embedding: clients POST a spec (or GET one by name) and receive the
// result video as a progressive VMS stream — playback-ready packets start
// flowing while later segments are still rendering. cmd/v2vserve wraps it
// in flags and signal handling; the overload benchmarks drive the same
// handler in-process.
//
// Endpoints:
//
//	POST /synthesize          spec text or JSON in the body -> VMS stream
//	GET  /synthesize?spec=X   loads <SpecDir>/X -> VMS stream
//	GET  /healthz             liveness probe
//	GET  /metrics             Prometheus text exposition
//	GET  /debug/requests      flight recorder: recent + in-flight requests
//	GET  /debug/caches        cache contents per kind and the budget split
//	GET  /debug/admit         admission controller + memory-pressure state
//	GET  /debug/pprof/        net/http/pprof profiles
//
// Every response carries an X-Trace-Id header; the same ID appears in the
// request's structured log lines, its /debug/requests record, and its
// span trace (/debug/requests?trace=<id> exports Chrome trace JSON).
//
// Every synthesis passes cost-based admission control before executing
// (docs/ADMISSION.md): X-Tenant (or X-API-Key) selects the fairness
// bucket, X-Deadline-Ms sets a deadline the scheduler honors, and a
// request the server cannot serve in time is refused with 429/503 plus
// Retry-After instead of failing mid-stream.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"v2v/internal/admit"
	"v2v/internal/cliutil"
	"v2v/internal/media"
	"v2v/internal/obs"
)

// Config configures a Server. Each field but the last two is the value of
// the v2vserve flag named in its comment, in that flag's units and with
// its zero-value and -1 = disable meanings (v2vserve -h documents them).
type Config struct {
	SpecDir            string        // -specs: directory GET ?spec= names resolve under
	NoOpt              bool          // -no-opt
	SynthTimeout       time.Duration // -synth-timeout
	Strict             bool          // -strict
	GOPCacheMB         int           // -gop-cache-mb: 0 = sized for Parallel, -1 = disable
	ResultCacheMB      int           // -result-cache-mb: 0 = 256 MiB, -1 = disable
	SlowQueryMS        int           // -slow-query-ms
	FlightRecorderSize int           // -flight-recorder-size
	Parallel           int           // -parallel: 0 = GOMAXPROCS; admission slots = 2 × Parallel
	MaxQueue           int           // -max-queue
	AdmitTimeout       time.Duration // -admit-timeout
	TenantWeight       string        // -tenant-weight: "name=w,name=w"
	StreamBufferKB     int           // -stream-buffer-kb

	// Logger receives the request and synthesis log lines (nil =
	// slog.Default()).
	Logger *slog.Logger
	// Monitor, when non-nil, drives its memory-pressure factor into
	// admission and the cache budget, and is reported at /debug/admit.
	// The caller runs it.
	Monitor *admit.Monitor
}

// The handler's instruments, registered once on the registry /metrics
// serves; updates on the hot path are lock-free.
var (
	requests = obs.Default().Counter("v2v_http_requests_total", "HTTP requests served.")
	errs4xx  = obs.Default().Counter(`v2v_http_errors_total{class="4xx"}`,
		"HTTP error responses by status class.")
	errs5xx = obs.Default().Counter(`v2v_http_errors_total{class="5xx"}`,
		"HTTP error responses by status class.")
	synthOK   = obs.Default().Counter("v2v_synthesis_total", "Completed syntheses.")
	synthFail = obs.Default().Counter("v2v_synthesis_failures_total",
		"Syntheses that failed mid-stream, after headers were sent.")
	synthCanceled = obs.Default().Counter("v2v_synthesis_canceled_total",
		"Syntheses stopped by client disconnect or the per-request timeout.")
	truncated = obs.Default().Counter("v2v_streams_truncated_total",
		"Response streams that ended after the header without a clean end-of-stream trailer (failed or canceled mid-stream).")
	inflight = obs.Default().Gauge("v2v_inflight_requests", "Requests currently being served.")
	wallHist = obs.Default().Histogram("v2v_synthesis_wall_seconds",
		"End-to-end synthesis wall time.", obs.LatencyBuckets())
	ttffHist = obs.Default().Histogram("v2v_stream_ttff_seconds",
		"Time until the first bytes were flushed to the client — the honest time-to-first-frame.",
		obs.LatencyBuckets())
)

// Server is the synthesis handler and the state its requests share.
type Server struct {
	cfg Config
	// parallelism is cfg.Parallel resolved once for the process.
	parallelism int
	// cache is the process-wide cache (nil = disabled): concurrent
	// requests touching the same sources share decodes, a hot GOP survives
	// across requests, and a repeated or overlapping query splices
	// previously encoded segments instead of re-rendering.
	cache  *media.Cache
	flight *obs.FlightRecorder
	// admit is the overload front door: every synthesis passes Acquire
	// before executing, weighted by its plan's estimated cost.
	admit   *admit.Controller
	handler http.Handler
}

// New builds a server from cfg. The only invalid input it reports is a
// malformed TenantWeight; callers validate the numeric fields' ranges.
func New(cfg Config) (*Server, error) {
	weights, err := cliutil.ParseTenantWeights("-tenant-weight", cfg.TenantWeight)
	if err != nil {
		return nil, err
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{cfg: cfg, parallelism: cfg.Parallel, flight: obs.NewFlightRecorder(cfg.FlightRecorderSize)}
	if s.parallelism < 1 {
		s.parallelism = runtime.GOMAXPROCS(0)
	}
	s.flight.SetSlowThreshold(time.Duration(cfg.SlowQueryMS) * time.Millisecond)
	s.flight.SetLogger(cfg.Logger)
	s.cache = media.NewCache(int64(cfg.GOPCacheMB)<<20, int64(cfg.ResultCacheMB)<<20, s.parallelism)
	s.admit = admit.NewController(admit.Config{
		MaxQueue: cfg.MaxQueue,
		MaxWait:  cfg.AdmitTimeout,
		Weights:  weights,
		SlotCap:  2 * s.parallelism,
	})
	if cfg.Monitor != nil {
		// Memory pressure drives both back-pressure paths: the cache
		// sheds resident bytes, the admission controller tightens its
		// concurrency and cost capacity.
		cfg.Monitor.OnChange(func(l admit.PressureLevel) {
			f := l.Factor()
			s.admit.SetPressureFactor(f)
			if s.cache != nil {
				s.cache.SetPressureFactor(f)
			}
			cfg.Logger.Info("memory pressure level", "level", l.String(), "factor", f)
		})
	}
	s.handler = s.routes()
	return s, nil
}

// Handler returns the server's routes behind the logging/metrics
// middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Close closes admission: queued requests are shed with Retry-After and
// later ones are refused, while admitted syntheses run to completion.
// Call it after the HTTP server has drained.
func (s *Server) Close() { s.admit.Close() }

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/synthesize", s.synthesize)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", obs.Default().Handler())
	mux.Handle("/debug/requests", s.flight.Handler())
	mux.HandleFunc("/debug/caches", s.caches)
	mux.HandleFunc("/debug/admit", s.admitDebug)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.observed(mux)
}

// statusWriter captures the response status and bytes written for logging
// and error counting, passing flushes through so streaming stays
// progressive.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traceIDKey carries the request's trace ID through the context from the
// middleware to the synthesize handler, so the flight record, the span
// trace, and every log line share one ID.
type traceIDKeyType struct{}

var traceIDKey traceIDKeyType

// observed is the request middleware: it assigns the trace ID (echoed in
// the X-Trace-Id response header), logs a structured request line, and
// feeds the request/error counters.
func (s *Server) observed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		traceID := obs.NewTraceID()
		inflight.Add(1)
		defer inflight.Add(-1)
		w.Header().Set("X-Trace-Id", traceID)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		r = r.WithContext(context.WithValue(r.Context(), traceIDKey, traceID))
		next.ServeHTTP(sw, r)
		requests.Inc()
		switch {
		case sw.status >= 500:
			errs5xx.Inc()
		case sw.status >= 400:
			errs4xx.Inc()
		}
		target := r.URL.Path
		if name := r.URL.Query().Get("spec"); name != "" {
			target += "?spec=" + name
		}
		s.cfg.Logger.Info("request",
			"method", r.Method,
			"target", target,
			"status", sw.status,
			"bytes", sw.bytes,
			"wall", time.Since(start).Round(time.Millisecond),
			"trace_id", traceID)
	})
}

// admitDebug serves GET /debug/admit: the admission controller's queue
// depths and per-tenant shares, the memory-pressure state, and the cache
// budget's split.
func (s *Server) admitDebug(w http.ResponseWriter, _ *http.Request) {
	resp := struct {
		Admission admit.Stats        `json:"admission"`
		Pressure  *pressureDump      `json:"pressure,omitempty"`
		Budget    *media.BudgetStats `json:"arbiter,omitempty"`
	}{Admission: s.admit.Stats()}
	if m := s.cfg.Monitor; m != nil {
		samp := m.LastSample()
		resp.Pressure = &pressureDump{
			Level:       m.Level().String(),
			UsedBytes:   samp.Used,
			LimitBytes:  samp.Limit,
			Utilization: samp.Utilization(),
		}
	}
	if s.cache != nil {
		st := s.cache.BudgetStats()
		resp.Budget = &st
	}
	s.writeJSON(w, "admit", resp)
}

// pressureDump is /debug/admit's memory-pressure section.
type pressureDump struct {
	Level       string  `json:"level"`
	UsedBytes   uint64  `json:"used_bytes"`
	LimitBytes  uint64  `json:"limit_bytes"`
	Utilization float64 `json:"utilization"`
}

// cacheDump is one cache's /debug/caches section: its counters plus the
// resident entries, most recently used first.
type cacheDump struct {
	Stats   media.CacheStats   `json:"stats"`
	Entries []media.CacheEntry `json:"entries"`
}

// caches serves /debug/caches: each kind's counters and resident entries,
// and the budget's split between the kinds under the "arbiter" key the
// benchmark reads. Sections for kinds the cache does not hold are
// omitted.
func (s *Server) caches(w http.ResponseWriter, _ *http.Request) {
	resp := struct {
		GOP    *cacheDump         `json:"gop,omitempty"`
		Result *cacheDump         `json:"result,omitempty"`
		Budget *media.BudgetStats `json:"arbiter,omitempty"`
	}{}
	dump := func(k media.Kind) *cacheDump {
		if !s.cache.Holds(k) {
			return nil
		}
		return &cacheDump{Stats: s.cache.Stats(k), Entries: s.cache.Entries(k)}
	}
	resp.GOP, resp.Result = dump(media.KindGOP), dump(media.KindResult)
	if s.cache != nil {
		st := s.cache.BudgetStats()
		resp.Budget = &st
	}
	s.writeJSON(w, "cache", resp)
}

// writeJSON serves v as indented JSON, logging an encoding failure.
func (s *Server) writeJSON(w http.ResponseWriter, what string, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.cfg.Logger.Warn(what+" dump failed", "error", err)
	}
}
