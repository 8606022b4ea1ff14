package benchkit

// Overload sweep and chaos-overload scenario: v2vserve's handler
// (internal/serve) is served in-process and driven with seeded request
// bursts at multiples of the measured service rate, measuring goodput,
// tail latency, and shed rate — and, under an injected memory-pressure
// episode, verifying that the server sheds with typed retryable errors and
// shrinks its cache budget instead of erroring mid-stream or growing
// without bound.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"v2v/internal/admit"
	"v2v/internal/faults"
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
// kind of cache entry gets a cacheMB share of one 2×cacheMB budget; mon,
// when non-nil, drives the handler's memory-pressure reactions. stop
// closes the listener, then admission.
func overloadServer(cacheMB int, mon *admit.Monitor) (base string, stop func(), err error) {
	srv, err := serve.New(serve.Config{
		// Admission runs twice Parallel syntheses at once: the two slots.
		Parallel:      1,
		MaxQueue:      4,
		AdmitTimeout:  30 * time.Second,
		TenantWeight:  "gold=3,free=1",
		GOPCacheMB:    cacheMB,
		ResultCacheMB: cacheMB,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		Monitor:       mon,
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
	base, stop, err := overloadServer(16, nil)
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
		offsets := faults.OverloadBurst(seed+int64(li), overloadRequests, service, load)
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

// budgetStats reads the cache budget's split from the handler's
// /debug/caches, as an operator would.
func budgetStats(base string) (media.BudgetStats, error) {
	var dump struct {
		Budget media.BudgetStats `json:"arbiter"`
	}
	err := getJSON(base, "/debug/caches", &dump)
	return dump.Budget, err
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

// ChaosOverloadResult reports the chaos-overload scenario: a 16x
// two-tenant burst while an injected memory-pressure episode ramps to
// critical and recedes. The invariants (checked by ChaosOverloadRun,
// reported here for the table) are: overload surfaces only as typed
// 429/503 sheds with Retry-After — never mid-stream errors; the cache
// budget shrinks under pressure and recovers after.
type ChaosOverloadResult struct {
	Row OverloadRow
	// PreCacheBytes/MinCacheBytes/PostCacheBytes track resident cache
	// bytes before, during, and after the pressure episode.
	PreCacheBytes  int64
	MinCacheBytes  int64
	PostCacheBytes int64
	// CriticalFactor is the pressure factor observed while the monitor
	// reported critical (0.25 when the episode engaged correctly);
	// FinalFactor after the episode receded (1 on full recovery).
	CriticalFactor float64
	FinalFactor    float64
}

// ChaosOverloadRun drives v2vserve's handler with a seeded 16x burst while
// a seeded memory-pressure episode steps the handler's injected monitor,
// and verifies the overload invariants from what the handler serves.
// Fault-induced sheds are expected; invariant violations return an error.
func ChaosOverloadRun(ds *Dataset, cfg Config, seed int64) (*ChaosOverloadResult, error) {
	q, ok := QueryByID("Q4")
	if !ok {
		return nil, fmt.Errorf("benchkit: chaos overload query missing")
	}
	src := q.BuildSpecSource(ds, cfg.Scale)

	// The synthetic episode feeds the Monitor/OnChange plumbing the server
	// runs, stepped manually so the walk is deterministic.
	ep := faults.NewPressureEpisode(seed, 0.3, 0.95, 5, 4)
	const limit = 1 << 30
	sampler := ep.Sampler(limit)
	mon := admit.NewMonitor(time.Hour)
	mon.SetSampler(func() admit.MemSample {
		used, lim := sampler()
		return admit.MemSample{Used: used, Limit: lim}
	})
	base, stop, err := overloadServer(8, mon)
	if err != nil {
		return nil, err
	}
	defer stop()

	// Calibration warms the GOP/result caches, so the episode has
	// resident bytes to squeeze.
	service, err := calibrate(base, src)
	if err != nil {
		return nil, fmt.Errorf("benchkit: chaos overload calibration: %w", err)
	}
	pre, err := budgetStats(base)
	if err != nil {
		return nil, err
	}
	res := &ChaosOverloadResult{PreCacheBytes: pre.Used, MinCacheBytes: pre.Used}

	offsets := faults.OverloadBurst(seed, overloadRequests, service, 16)
	done := make(chan []overloadResult, 1)
	t0 := time.Now()
	go func() { done <- runBurst(base, src, offsets) }()

	for !ep.Done() {
		mon.Poll()
		st, err := budgetStats(base)
		if err != nil {
			return res, err
		}
		if st.Used < res.MinCacheBytes {
			res.MinCacheBytes = st.Used
		}
		if mon.Level() == admit.PressureCritical {
			res.CriticalFactor = st.PressureFactor
			// Slack of one GOP-sized entry: an insert may be in flight
			// between the eviction and this snapshot.
			if st.Used > st.Total+(1<<20) {
				return res, fmt.Errorf("benchkit: chaos overload: %d cache bytes resident over the pressure-scaled %d budget", st.Used, st.Total)
			}
		}
		time.Sleep(service / 4)
	}
	mon.Poll() // the final baseline sample clears the pressure level

	results := <-done
	res.Row = classify(16, results, time.Since(t0))
	if res.Row.ShedRecorded, err = recordedSheds(base, results); err != nil {
		return res, err
	}

	// Recovery: with the budget restored, a repeat request re-fills the
	// caches past the squeezed floor.
	if _, err := calibrate(base, src); err != nil {
		return res, fmt.Errorf("benchkit: chaos overload recovery request: %w", err)
	}
	post, err := budgetStats(base)
	if err != nil {
		return res, err
	}
	res.PostCacheBytes = post.Used
	res.FinalFactor = post.PressureFactor

	switch {
	case res.Row.Failed > 0:
		return res, fmt.Errorf("benchkit: chaos overload: %d request(s) failed outside the shed contract (want typed 429/503 with Retry-After)", res.Row.Failed)
	case res.Row.ShedRecorded != res.Row.Shed:
		return res, fmt.Errorf("benchkit: chaos overload: %d of %d sheds missing from the flight recorder", res.Row.Shed-res.Row.ShedRecorded, res.Row.Shed)
	case res.CriticalFactor != 0.25:
		return res, fmt.Errorf("benchkit: chaos overload: critical pressure factor %v, want 0.25", res.CriticalFactor)
	case res.FinalFactor != 1:
		return res, fmt.Errorf("benchkit: chaos overload: pressure factor %v after the episode, want full recovery to 1", res.FinalFactor)
	case res.PreCacheBytes > 4<<20 && res.MinCacheBytes >= res.PreCacheBytes:
		// With >25% of the 16 MiB budget resident, the critical quarter
		// budget must have evicted something.
		return res, fmt.Errorf("benchkit: chaos overload: cache bytes never shrank under pressure (pre %d, min %d)", res.PreCacheBytes, res.MinCacheBytes)
	}
	return res, nil
}

// FormatChaosOverload renders the scenario outcome as text.
func FormatChaosOverload(title string, r *ChaosOverloadResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	sb.WriteString(FormatOverload("16x burst under memory pressure:", []OverloadRow{r.Row}))
	fmt.Fprintf(&sb, "cache bytes: pre %d -> min %d under pressure -> post %d after recovery (factors: critical %.2f, final %.2f)\n",
		r.PreCacheBytes, r.MinCacheBytes, r.PostCacheBytes, r.CriticalFactor, r.FinalFactor)
	return sb.String()
}
