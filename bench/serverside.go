package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"v2v/internal/admit"
	"v2v/internal/media"
	"v2v/internal/obs"
)

// The traced pass reads the server's layers from what it already serves:
// flight records and span traces at /debug/requests (joined to the
// client's spans by X-Trace-Id), cache counters at /debug/caches,
// admission state at /debug/admit, and the Go runtime's allocation
// counters in the text heap profile. Nothing is added to the server.

func getJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverCounters is one reading of the server's cumulative counters.
type serverCounters struct {
	GOP     media.GOPCacheStats
	Result  media.ResultCacheStats
	Denied  int64
	Shed    int64
	AllocMB float64
	Mallocs float64
}

func readServerCounters(base string) (serverCounters, error) {
	var c serverCounters
	var caches struct {
		GOP     *struct{ Stats media.GOPCacheStats }    `json:"gop"`
		Result  *struct{ Stats media.ResultCacheStats } `json:"result"`
		Arbiter *media.ArbiterStats                     `json:"arbiter"`
	}
	if err := getJSON(base, "/debug/caches", &caches); err != nil {
		return c, err
	}
	if caches.GOP != nil {
		c.GOP = caches.GOP.Stats
	}
	if caches.Result != nil {
		c.Result = caches.Result.Stats
	}
	if caches.Arbiter != nil {
		c.Denied = caches.Arbiter.Denied
	}
	var ad struct {
		Admission admit.Stats `json:"admission"`
	}
	if err := getJSON(base, "/debug/admit", &ad); err != nil {
		return c, err
	}
	for _, t := range ad.Admission.Tenants {
		c.Shed += t.Shed
	}
	var err error
	c.AllocMB, c.Mallocs, err = readServerMemStats(base)
	return c, err
}

// readServerMemStats parses the runtime.MemStats dump that the text heap
// profile ends with ("# TotalAlloc = N", "# Mallocs = N").
func readServerMemStats(base string) (allocMB, mallocs float64, err error) {
	resp, err := http.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			n, _ := strconv.ParseFloat(v, 64)
			allocMB = n / (1 << 20)
			found++
		} else if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			mallocs, _ = strconv.ParseFloat(v, 64)
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("heap profile carries no MemStats dump")
	}
	return allocMB, mallocs, nil
}

// joinServerRecords fills the layer samples of each traced serve op from
// the server's flight record and span trace for its X-Trace-Id, and
// returns the admission queue waits in milliseconds.
func joinServerRecords(base string, rec *spanRecorder, results []*opResult, parallel int) (queueWaitMS []float64, err error) {
	// The client reads a stream's trailer before the server's handler has
	// closed the request's flight record, so the last requests of the pass
	// can still be in flight in the first dump: read again until none of
	// the pass's requests is.
	var byID map[string]*obs.RequestRecord
	for attempt := 0; ; attempt++ {
		var dump struct {
			Requests []obs.RequestRecord `json:"requests"`
		}
		if err := getJSON(base, "/debug/requests", &dump); err != nil {
			return nil, err
		}
		byID = make(map[string]*obs.RequestRecord, len(dump.Requests))
		for i := range dump.Requests {
			byID[dump.Requests[i].TraceID] = &dump.Requests[i]
		}
		active := false
		for _, r := range results {
			if fr := byID[r.traceID]; fr != nil && fr.Active {
				active = true
			}
		}
		if !active || attempt == 50 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, r := range results {
		if r.Err != "" || r.layer == nil {
			continue
		}
		fr := byID[r.traceID]
		if fr == nil {
			r.fail("no flight record for trace %s", r.traceID)
			continue
		}
		if fr.Outcome != "ok" {
			r.fail("flight record outcome %q: %s", fr.Outcome, fr.Error)
			continue
		}
		queueWaitMS = append(queueWaitMS, millis(fr.QueuedWall))
		wall := float64(r.Wall)
		r.layer["serve.overhead_ms"] = millis(r.Wall - fr.Wall)
		r.layer["exec.ttff_over_wall"] = float64(r.TTFF) / wall
		var busy time.Duration
		for stage, name := range map[string]string{
			"decode": "exec.decode_busy_ms", "filter": "exec.filter_busy_ms",
			"encode": "exec.encode_busy_ms", "copy": "exec.copy_busy_ms",
		} {
			busy += fr.Stages[stage].Wall
			r.layer[name] = millis(fr.Stages[stage].Wall)
		}
		for _, s := range fr.Segments {
			r.layer["exec.frames_decoded"] += float64(s.FramesDecoded)
			r.layer["exec.frames_encoded"] += float64(s.FramesEncoded)
			r.layer["exec.packets_copied"] += float64(s.PacketsCopied)
			r.layer["exec.frames_rendered"] += float64(s.FramesRendered)
		}

		spans, err := serverSpans(base, r.traceID)
		if err != nil {
			r.fail("server trace: %v", err)
			continue
		}
		accounted := fr.QueuedWall
		for span, metric := range map[string]string{
			"check": "check.check_us", "rewrite": "rewrite.rewrite_us",
			"plan": "plan.build_us", "optimize": "opt.optimize_us",
		} {
			accounted += spans[span].dur
			r.layer[metric] = micros(spans[span].dur)
		}
		r.layer["rewrite.rewrites_applied"] = 0
		for k, v := range spans["rewrite"].args {
			if strings.HasPrefix(k, "applied.") {
				r.layer["rewrite.rewrites_applied"] += v
			}
		}
		oa := spans["optimize"].args
		r.layer["opt.copies"] = oa["copies"]
		r.layer["opt.smart_cuts"] = oa["smart_cuts"]
		r.layer["opt.sharded_segments"] = oa["sharded_segments"]
		execWall := spans["execute"].dur
		accounted += execWall
		r.layer["exec.execute_ms"] = millis(execWall)
		r.layer["exec.share_of_wall"] = float64(execWall) / wall
		r.layer["core.unaccounted_share"] = (wall - float64(accounted)) / wall
		r.layer["exec.busy_over_wall"] = ratio(float64(busy), float64(execWall)*float64(parallel))
		rec.annotate(r.rootSpan, map[string]any{
			"class": r.Op.Class.String(), "trace_id": r.traceID,
			"server_wall_us": fr.Wall.Microseconds(), "queued_us": fr.QueuedWall.Microseconds(),
			"execute_us": execWall.Microseconds(),
		})
	}
	return queueWaitMS, nil
}

type serverSpan struct {
	dur  time.Duration
	args map[string]float64
}

// serverSpans fetches one request's span trace (Chrome trace_event JSON)
// and returns its top-level pipeline spans by name, with their numeric
// attributes.
func serverSpans(base, traceID string) (map[string]serverSpan, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := getJSON(base, "/debug/requests?trace="+traceID, &doc); err != nil {
		return nil, err
	}
	out := map[string]serverSpan{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if _, dup := out[e.Name]; dup {
			continue
		}
		s := serverSpan{dur: time.Duration(e.Dur) * time.Microsecond, args: map[string]float64{}}
		for k, v := range e.Args {
			if f, ok := v.(float64); ok {
				s.args[k] = f
			}
		}
		out[e.Name] = s
	}
	return out, nil
}
