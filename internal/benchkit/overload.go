package benchkit

// Overload sweep: v2vserve's handler (internal/serve) is served in-process
// and driven with seeded request bursts at multiples of the measured
// service rate, measuring goodput, tail latency, and shed rate.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/serve"
)

// OverloadRow reports one offered-load point of the sweep.
type OverloadRow struct {
	// Load is the offered-load multiple of the measured service rate.
	Load float64
	// Offered/Completed/Shed/Failed partition the requests: sheds are
	// typed 429/503 responses carrying Retry-After; failures are anything
	// else that did not complete (the overload invariant violations).
	Offered   int
	Completed int
	Shed      int
	Failed    int
	// ShedRecorded counts the sheds whose trace ID the handler's flight
	// recorder lists at /debug/requests?shed=1; every shed should be.
	ShedRecorded int
	// ShedRate is Shed/Offered.
	ShedRate float64
	// GoodputQPS is completed requests per second of burst wall time.
	GoodputQPS float64
	// P99 is the 99th-percentile end-to-end latency of completed requests.
	P99 time.Duration
	// TenantCompleted counts completions per tenant (the weighted-fairness
	// signal: with weights 3:1 under saturation, completions should split
	// roughly 3:1).
	TenantCompleted map[string]int
}

// overloadLoads are the offered-load multiples the sweep measures.
var overloadLoads = []float64{1, 4, 16}

// overloadRequests is the number of requests per load point.
const overloadRequests = 24

// overloadServer serves v2vserve's handler under a deliberately tight
// admission config — two slots, a four-deep queue, tenants gold and free
// weighted 3:1 — so the sweep exercises shedding at small request counts
// instead of needing thousands of requests to saturate a real host. Each
// kind of cache entry gets a 16 MiB share of one 32 MiB budget. stop
// closes the listener, then admission.
func overloadServer() (base string, stop func(), err error) {
	srv, err := serve.New(serve.Config{
		// Admission runs twice Parallel syntheses at once: the two slots.
		Parallel:      1,
		MaxQueue:      4,
		AdmitTimeout:  30 * time.Second,
		TenantWeight:  "gold=3,free=1",
		GOPCacheMB:    16,
		ResultCacheMB: 16,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return "", nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return ts.URL, func() {
		ts.Close()
		srv.Close()
	}, nil
}

// overloadResult is one request's classified outcome.
type overloadResult struct {
	tenant    string
	traceID   string // the response's X-Trace-Id
	status    int
	wall      time.Duration
	retryable bool // Retry-After present on a shed response
	err       error
	truncated bool // 200 whose stream ended without the end marker
}

// shed reports whether the request was refused under the shed contract: a
// typed 429/503 carrying Retry-After.
func (r overloadResult) shed() bool {
	return r.err == nil && r.retryable &&
		(r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable)
}

// runBurst fires len(offsets) requests at base's /synthesize on the given
// arrival schedule, alternating tenants gold,gold,gold,free (matching the
// 3:1 weights), and classifies every outcome.
func runBurst(base, src string, offsets []time.Duration) []overloadResult {
	results := make([]overloadResult, len(offsets))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offsets {
		wg.Add(1)
		go func(i int, off time.Duration) {
			defer wg.Done()
			tenant := "gold"
			if i%4 == 3 {
				tenant = "free"
			}
			time.Sleep(off - time.Since(start))
			t0 := time.Now()
			req, _ := http.NewRequest("POST", base+"/synthesize", strings.NewReader(src))
			req.Header.Set("X-Tenant", tenant)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results[i] = overloadResult{tenant: tenant, err: err}
				return
			}
			truncated := false
			if resp.StatusCode == http.StatusOK {
				// Read the VMS stream to its end marker; any parse or read
				// error means the server errored mid-stream.
				truncated = readStreamToEnd(resp.Body) != nil
			} else {
				_, _ = io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
			results[i] = overloadResult{
				tenant:    tenant,
				traceID:   resp.Header.Get("X-Trace-Id"),
				status:    resp.StatusCode,
				wall:      time.Since(t0),
				retryable: resp.Header.Get("Retry-After") != "",
				truncated: truncated,
			}
		}(i, off)
	}
	wg.Wait()
	return results
}

// readStreamToEnd consumes a VMS stream until its clean end-of-stream
// marker, returning an error on truncation or corruption.
func readStreamToEnd(r io.Reader) error {
	sr, err := media.NewStreamReader(r)
	if err != nil {
		return err
	}
	for {
		_, _, err := sr.NextPacket()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// classify folds raw results into a row; burstWall is the wall time the
// whole burst took (for goodput).
func classify(load float64, results []overloadResult, burstWall time.Duration) OverloadRow {
	row := OverloadRow{Load: load, Offered: len(results), TenantCompleted: map[string]int{}}
	var lat []time.Duration
	for _, res := range results {
		switch {
		case res.err != nil || res.truncated:
			row.Failed++
		case res.status == http.StatusOK:
			row.Completed++
			row.TenantCompleted[res.tenant]++
			lat = append(lat, res.wall)
		case res.shed():
			row.Shed++
		default:
			// Wrong status or a shed without Retry-After: a contract break.
			row.Failed++
		}
	}
	if row.Offered > 0 {
		row.ShedRate = float64(row.Shed) / float64(row.Offered)
	}
	if s := burstWall.Seconds(); s > 0 {
		row.GoodputQPS = float64(row.Completed) / s
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		row.P99 = lat[(len(lat)*99)/100]
	}
	return row
}

// OverloadRun measures v2vserve's handler at 1x/4x/16x offered load:
// goodput, p99 latency of completed requests, and shed rate, with two
// tenants weighted 3:1. Every shed must be a typed 429/503 with
// Retry-After; anything else counts in the row's Failed column.
func OverloadRun(ds *Dataset, cfg Config, seed int64) ([]OverloadRow, error) {
	q, ok := QueryByID("Q4")
	if !ok {
		return nil, fmt.Errorf("benchkit: overload query missing")
	}
	src := q.BuildSpecSource(ds, cfg.Scale)
	base, stop, err := overloadServer()
	if err != nil {
		return nil, err
	}
	defer stop()

	service, err := calibrate(base, src)
	if err != nil {
		return nil, fmt.Errorf("benchkit: overload calibration: %w", err)
	}

	var rows []OverloadRow
	for li, load := range overloadLoads {
		offsets := OverloadBurst(seed+int64(li), overloadRequests, service, load)
		t0 := time.Now()
		results := runBurst(base, src, offsets)
		row := classify(load, results, time.Since(t0))
		if row.ShedRecorded, err = recordedSheds(base, results); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// getJSON decodes the JSON the handler serves at base+path.
func getJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("benchkit: GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// recordedSheds counts the shed results whose trace ID the handler's
// flight recorder lists with outcome shed.
func recordedSheds(base string, results []overloadResult) (int, error) {
	var dump struct {
		Requests []obs.RequestRecord `json:"requests"`
	}
	if err := getJSON(base, "/debug/requests?shed=1", &dump); err != nil {
		return 0, err
	}
	recorded := make(map[string]bool, len(dump.Requests))
	for _, r := range dump.Requests {
		recorded[r.TraceID] = true
	}
	n := 0
	for _, r := range results {
		if r.shed() && recorded[r.traceID] {
			n++
		}
	}
	return n, nil
}

// calibrate measures the service time of one warm request (after one
// discarded cold request that also fills the caches).
func calibrate(base, src string) (time.Duration, error) {
	var service time.Duration
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		resp, err := http.Post(base+"/synthesize", "text/plain", strings.NewReader(src))
		if err != nil {
			return 0, err
		}
		_, rerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return 0, fmt.Errorf("calibration read (status %d): %w", resp.StatusCode, rerr)
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("calibration status %d", resp.StatusCode)
		}
		service = time.Since(t0)
	}
	if service <= 0 {
		service = time.Millisecond
	}
	return service, nil
}

// FormatOverload renders the sweep as a text table.
func FormatOverload(title string, rows []OverloadRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-6s %8s %10s %6s %7s %9s %12s %10s  %s\n",
		"load", "offered", "completed", "shed", "failed", "shedrate", "goodput", "p99", "per-tenant")
	for _, r := range rows {
		var tenants []string
		for t, n := range r.TenantCompleted {
			tenants = append(tenants, fmt.Sprintf("%s=%d", t, n))
		}
		sort.Strings(tenants)
		fmt.Fprintf(&sb, "%-6s %8d %10d %6d %7d %8.0f%% %9.2f/s %10s  %s\n",
			fmt.Sprintf("%gx", r.Load), r.Offered, r.Completed, r.Shed, r.Failed,
			r.ShedRate*100, r.GoodputQPS, r.P99.Round(time.Millisecond),
			strings.Join(tenants, " "))
	}
	return sb.String()
}

// OverloadBurst returns n request arrival offsets (from t=0, sorted
// ascending) modeling an offered load of factor× a service capacity of
// one request per base: exponential inter-arrivals with mean base/factor,
// capped at 4× the mean so one long gap cannot hide the overload. Equal
// seeds produce equal bursts.
func OverloadBurst(seed int64, n int, base time.Duration, factor float64) []time.Duration {
	if n <= 0 {
		return nil
	}
	if factor <= 0 {
		factor = 1
	}
	mean := float64(base) / factor
	rng := rand.New(rand.NewSource(seed))
	offs := make([]time.Duration, n)
	var t float64
	for i := range offs {
		gap := rng.ExpFloat64() * mean
		if lim := 4 * mean; gap > lim {
			gap = lim
		}
		t += gap
		offs[i] = time.Duration(t)
	}
	return offs
}
