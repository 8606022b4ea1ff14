package main

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"v2v/internal/dataset"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/rational"
	"v2v/internal/serve"
)

func TestFetchRemuxesToVMF(t *testing.T) {
	dir := t.TempDir()
	vid := filepath.Join(dir, "cam.vmf")
	if _, err := dataset.Generate(vid, "", dataset.TinyProfile(), rational.FromInt(3)); err != nil {
		t.Fatal(err)
	}
	spec := fmt.Sprintf(`
		timedomain range(0, 1, 1/24);
		videos { cam: %q; }
		render(t) = cam[t + 1];`, vid)
	if err := os.WriteFile(filepath.Join(dir, "demo.v2v"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{SpecDir: dir, Parallel: 2, GOPCacheMB: -1, ResultCacheMB: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "fetched.vmf")
	if err := fetch(ts.URL+"/synthesize?spec=demo.v2v", out); err != nil {
		t.Fatal(err)
	}
	r, err := media.OpenReader(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumFrames() != 24 {
		t.Fatalf("frames = %d", r.NumFrames())
	}
	fr, err := r.FrameAtIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := frame.ReadStamp(fr); !ok || id != 24 {
		t.Errorf("first frame stamp = %d,%v", id, ok)
	}
	// Fetch error paths.
	if err := fetch(ts.URL+"/synthesize?spec=missing.v2v", out); err == nil {
		t.Error("missing spec fetch should fail")
	}
	if err := fetch("http://127.0.0.1:1/nope", out); err == nil {
		t.Error("unreachable server should fail")
	}
}

// TestServerFlags pins the flags that configure the handler to their
// serve.Config fields, defaults included.
func TestServerFlags(t *testing.T) {
	parse := func(args ...string) serve.Config {
		t.Helper()
		fs := flag.NewFlagSet("v2vserve", flag.ContinueOnError)
		cfg := serverFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return *cfg
	}
	if got, want := parse(), (serve.Config{SpecDir: "."}); got != want {
		t.Errorf("defaults = %+v, want %+v", got, want)
	}
	got := parse("-specs", "specs", "-no-opt", "-synth-timeout", "1m", "-strict",
		"-gop-cache-mb", "-1", "-result-cache-mb", "16", "-cache-budget-mb", "32",
		"-slow-query-ms", "500", "-flight-recorder-size", "1024", "-parallel", "4",
		"-max-queue", "8", "-admit-timeout", "5s", "-tenant-weight", "gold=3,free=1",
		"-flush-interval", "100ms", "-stream-buffer-kb", "512")
	want := serve.Config{
		SpecDir: "specs", NoOpt: true, SynthTimeout: time.Minute, Strict: true,
		GOPCacheMB: -1, ResultCacheMB: 16, CacheBudgetMB: 32,
		SlowQueryMS: 500, FlightRecorderSize: 1024, Parallel: 4,
		MaxQueue: 8, AdmitTimeout: 5 * time.Second, TenantWeight: "gold=3,free=1",
		FlushInterval: 100 * time.Millisecond, StreamBufferKB: 512,
	}
	if got != want {
		t.Errorf("parsed = %+v, want %+v", got, want)
	}
}

func TestValidateServeFlags(t *testing.T) {
	if err := validateServeFlags(30*time.Second, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "", "text"); err != nil {
		t.Errorf("defaults should validate: %v", err)
	}
	if err := validateServeFlags(time.Minute, time.Minute, 5*time.Second, 100*time.Millisecond, -1, -1, 0, 500, 1024, 8, 128, 512, "gold=3,free=1", "json"); err != nil {
		t.Errorf("full flag set should validate: %v", err)
	}
	for _, tc := range []struct {
		name                              string
		drain, synthTO, admitTO, flushIvl time.Duration
		cacheMB, resMB, budgetMB          int
		slowMS, flightSize                int
		parallel, maxQueue, streamKB      int
		tenantW                           string
		logFormat                         string
		want                              string
	}{
		{"negative drain", -time.Second, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "", "", "-drain"},
		{"negative synth timeout", 0, -time.Second, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "", "", "-synth-timeout"},
		{"absurd synth timeout", 0, 48 * time.Hour, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "", "", "exceeds"},
		{"negative admit timeout", 0, 0, -time.Second, 0, 0, 0, 0, 0, 0, 0, 0, 0, "", "", "-admit-timeout"},
		{"negative flush interval", 0, 0, 0, -time.Second, 0, 0, 0, 0, 0, 0, 0, 0, "", "", "-flush-interval"},
		{"absurd flush interval", 0, 0, 0, 48 * time.Hour, 0, 0, 0, 0, 0, 0, 0, 0, "", "", "-flush-interval"},
		{"bad gop cache", 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0, 0, "", "", "-gop-cache-mb"},
		{"bad result cache", 0, 0, 0, 0, 0, -9, 0, 0, 0, 0, 0, 0, "", "", "-result-cache-mb"},
		{"bytes-not-MiB cache", 0, 0, 0, 0, 1 << 30, 0, 0, 0, 0, 0, 0, 0, "", "", "MiB, not bytes"},
		{"negative budget", 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, "", "", "-cache-budget-mb"},
		{"negative slow threshold", 0, 0, 0, 0, 0, 0, 0, -5, 0, 0, 0, 0, "", "", "-slow-query-ms"},
		{"negative flight ring", 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, "", "", "-flight-recorder-size"},
		{"absurd flight ring", 0, 0, 0, 0, 0, 0, 0, 0, 1 << 20, 0, 0, 0, "", "", "-flight-recorder-size"},
		{"negative parallel", 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, "", "", "-parallel"},
		{"negative max queue", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, "", "", "-max-queue"},
		{"absurd max queue", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1 << 20, 0, "", "", "-max-queue"},
		{"negative stream buffer", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, "", "", "-stream-buffer-kb"},
		{"bytes-not-KiB stream buffer", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1 << 28, "", "", "KiB, not bytes"},
		{"bad tenant weight", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "gold=0", "", "-tenant-weight"},
		{"bad log format", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "", "xml", "-log-format"},
	} {
		err := validateServeFlags(tc.drain, tc.synthTO, tc.admitTO, tc.flushIvl, tc.cacheMB, tc.resMB, tc.budgetMB,
			tc.slowMS, tc.flightSize, tc.parallel, tc.maxQueue, tc.streamKB, tc.tenantW, tc.logFormat)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}
