// Command v2vserve is the on-demand synthesis server the paper envisions
// a VDBMS embedding: clients POST a spec and receive the result video as a
// progressive VMS stream — playback-ready packets start flowing while
// later segments are still rendering. The handler, its endpoints and its
// headers are package v2v/internal/serve; this command parses flags, runs
// the memory-pressure monitor and handles signals.
//
// Serve:
//
//	v2vserve -listen :8370 -specs ./specs
//
// SIGINT/SIGTERM drain in-flight streams (up to -drain) before exiting.
//
// Fetch (client mode): retrieve a stream and save it as a seekable VMF
// file:
//
//	v2vserve -fetch http://host:8370/synthesize?spec=demo.v2v -out result.vmf
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"v2v/internal/admit"
	"v2v/internal/cliutil"
	"v2v/internal/media"
	"v2v/internal/serve"
)

// validateServeFlags rejects nonsensical flag values before any server
// state is built, so a typo'd unit (bytes instead of MiB, negative
// durations) fails fast with a clear message.
func validateServeFlags(drain, synthTO, admitTO, flushInterval time.Duration, cacheMB, resMB, budgetMB, slowMS, flightSize, parallel, maxQueue, streamBufKB int, tenantWeight, logFormat string) error {
	_, werr := cliutil.ParseTenantWeights("-tenant-weight", tenantWeight)
	return errors.Join(
		cliutil.ValidateTimeout("-drain", drain),
		cliutil.ValidateTimeout("-synth-timeout", synthTO),
		cliutil.ValidateTimeout("-admit-timeout", admitTO),
		cliutil.ValidateTimeout("-flush-interval", flushInterval),
		cliutil.ValidateCacheMB("-gop-cache-mb", cacheMB),
		cliutil.ValidateCacheMB("-result-cache-mb", resMB),
		cliutil.ValidateBudgetMB("-cache-budget-mb", budgetMB),
		cliutil.ValidateMillis("-slow-query-ms", slowMS),
		cliutil.ValidateRingSize("-flight-recorder-size", flightSize),
		cliutil.ValidateParallel("-parallel", parallel),
		cliutil.ValidateQueueDepth("-max-queue", maxQueue),
		cliutil.ValidateBufferKB("-stream-buffer-kb", streamBufKB),
		werr,
		cliutil.ValidateLogFormat("-log-format", logFormat),
	)
}

// newLogger builds the process logger; "json" selects JSON lines for log
// shippers, anything else the human-readable text handler.
func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// serverFlags registers the flags that configure the handler on fs; the
// returned Config holds their values once fs is parsed.
func serverFlags(fs *flag.FlagSet) *serve.Config {
	c := &serve.Config{}
	fs.StringVar(&c.SpecDir, "specs", ".", "directory for GET ?spec= lookups")
	fs.BoolVar(&c.NoOpt, "no-opt", false, "disable the optimizer (for demos)")
	fs.DurationVar(&c.SynthTimeout, "synth-timeout", 0, "per-request synthesis timeout (0 = no limit)")
	fs.BoolVar(&c.Strict, "strict", false, "fail requests on corrupt or undecodable source packets instead of concealing them")
	fs.IntVar(&c.GOPCacheMB, "gop-cache-mb", 0, "decoded-GOP cache budget in MiB shared across all requests (0 = auto-size from the sources, -1 = disable)")
	fs.IntVar(&c.ResultCacheMB, "result-cache-mb", 0, "encoded-result cache budget in MiB shared across all requests (0 = 256 MiB default, -1 = disable)")
	fs.IntVar(&c.CacheBudgetMB, "cache-budget-mb", 0, "unified byte budget in MiB shared by the GOP and result caches via an arbiter (0 = sum of the per-cache budgets; ignored unless both caches are enabled)")
	fs.IntVar(&c.SlowQueryMS, "slow-query-ms", 0, "log a warning for requests slower than this many milliseconds, and let /debug/requests?slow=1 filter on it (0 = disabled)")
	fs.IntVar(&c.FlightRecorderSize, "flight-recorder-size", 0, "completed requests kept in the /debug/requests ring (0 = default)")
	fs.IntVar(&c.Parallel, "parallel", 0, "shard parallelism per synthesis (0 = GOMAXPROCS)")
	fs.IntVar(&c.MaxQueue, "max-queue", 0, "admission queue depth across all tenants (0 = default 64)")
	fs.DurationVar(&c.AdmitTimeout, "admit-timeout", 0, "max time a request may wait in the admission queue before being shed (0 = default 10s)")
	fs.StringVar(&c.TenantWeight, "tenant-weight", "", `per-tenant admission fairness weights as "name=w,name=w" (e.g. "gold=3,free=1"); unlisted tenants get weight 1`)
	fs.DurationVar(&c.FlushInterval, "flush-interval", 0, "minimum spacing between segment-boundary flushes on streaming (?stream=1) responses; the header and final flush are never delayed (0 = flush at every segment boundary)")
	fs.IntVar(&c.StreamBufferKB, "stream-buffer-kb", 0, "per-stream delivery queue cap in KiB for ?stream=1 responses; a client draining slower than synthesis blocks only its own request once the queue is full (0 = 256 KiB default)")
	return c
}

func main() {
	cfg := serverFlags(flag.CommandLine)
	var (
		listen    = flag.String("listen", ":8370", "serve address")
		drain     = flag.Duration("drain", 30*time.Second, "graceful shutdown drain timeout for in-flight streams")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		fetchURL  = flag.String("fetch", "", "client mode: fetch this URL instead of serving")
		out       = flag.String("out", "", "client mode: output VMF path")
	)
	flag.Parse()

	logger := newLogger(*logFormat)
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	if err := validateServeFlags(*drain, cfg.SynthTimeout, cfg.AdmitTimeout, cfg.FlushInterval,
		cfg.GOPCacheMB, cfg.ResultCacheMB, cfg.CacheBudgetMB, cfg.SlowQueryMS, cfg.FlightRecorderSize,
		cfg.Parallel, cfg.MaxQueue, cfg.StreamBufferKB, cfg.TenantWeight, *logFormat); err != nil {
		fatal("invalid flags", err)
	}

	if *fetchURL != "" {
		if *out == "" {
			fatal("client mode", errors.New("-fetch requires -out"))
		}
		if err := fetch(*fetchURL, *out); err != nil {
			fatal("fetch failed", err)
		}
		return
	}

	cfg.Logger = logger
	cfg.Monitor = admit.NewMonitor(0)
	srv, err := serve.New(*cfg)
	if err != nil {
		fatal("invalid flags", err)
	}
	hs := &http.Server{Addr: *listen, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Monitor.Run(ctx)

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("listening", "addr", *listen, "specs", cfg.SpecDir)

	select {
	case err := <-errc:
		fatal("server failed", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		logger.Info("shutdown signal, draining in-flight streams", "drain", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			logger.Warn("drain incomplete", "error", err)
		}
		srv.Close()
		cfg.Monitor.Wait()
		logger.Info("stopped")
	}
}

// fetch retrieves a VMS stream and re-muxes it into a seekable VMF file,
// decoding nothing (pure packet copy).
func fetch(url, outPath string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	sr, err := media.NewStreamReader(resp.Body)
	if err != nil {
		return err
	}
	w, err := media.CreateWriter(outPath, sr.Info())
	if err != nil {
		return err
	}
	n := 0
	for {
		key, data, err := sr.NextPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			w.Abort()
			// The typed trailer distinguishes a failure the server reported
			// from a connection that was simply cut mid-stream.
			switch {
			case errors.Is(err, media.ErrStreamFailed):
				return fmt.Errorf("fetch: server reported failure mid-stream: %w", err)
			case errors.Is(err, media.ErrTruncatedStream):
				return fmt.Errorf("fetch: connection cut before end-of-stream trailer: %w", err)
			}
			return err
		}
		if err := w.WriteRawPacket(key, data); err != nil {
			w.Abort()
			return err
		}
		n++
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("fetched %d packets into %s\n", n, outPath)
	return nil
}
