package cliutil

import (
	"strings"
	"testing"
	"time"
)

func TestValidateCacheMB(t *testing.T) {
	for _, tc := range []struct {
		mb      int
		wantErr string
	}{
		{0, ""},
		{-1, ""},
		{512, ""},
		{MaxCacheMB, ""},
		{-2, "use -1 to disable"},
		{MaxCacheMB + 1, "exceeds"},
	} {
		err := ValidateCacheMB("-gop-cache-mb", tc.mb)
		checkErr(t, "ValidateCacheMB", tc.mb, err, tc.wantErr)
	}
}

func TestValidateTimeout(t *testing.T) {
	for _, tc := range []struct {
		d       time.Duration
		wantErr string
	}{
		{0, ""},
		{time.Minute, ""},
		{MaxTimeout, ""},
		{-time.Second, "negative duration"},
		{MaxTimeout + time.Second, "exceeds"},
	} {
		err := ValidateTimeout("-timeout", tc.d)
		checkErr(t, "ValidateTimeout", tc.d, err, tc.wantErr)
	}
}

func TestValidateParallel(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantErr string
	}{
		{0, ""},
		{16, ""},
		{MaxParallel, ""},
		{-1, "negative parallelism"},
		{MaxParallel + 1, "exceeds"},
	} {
		err := ValidateParallel("-parallel", tc.n)
		checkErr(t, "ValidateParallel", tc.n, err, tc.wantErr)
	}
}

func checkErr(t *testing.T, fn string, arg any, err error, want string) {
	t.Helper()
	if want == "" {
		if err != nil {
			t.Errorf("%s(%v) = %v, want nil", fn, arg, err)
		}
		return
	}
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s(%v) = %v, want error containing %q", fn, arg, err, want)
	}
}

func TestValidateMillis(t *testing.T) {
	for _, tc := range []struct {
		ms      int
		wantErr string
	}{
		{0, ""},
		{250, ""},
		{-1, "negative threshold"},
		{int(MaxTimeout/time.Millisecond) + 1, "exceeds"},
	} {
		err := ValidateMillis("-slow-query-ms", tc.ms)
		checkErr(t, "ValidateMillis", tc.ms, err, tc.wantErr)
	}
}

func TestValidateRingSize(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantErr string
	}{
		{0, ""},
		{256, ""},
		{MaxRingSize, ""},
		{-1, "negative size"},
		{MaxRingSize + 1, "exceeds"},
	} {
		err := ValidateRingSize("-flight-recorder-size", tc.n)
		checkErr(t, "ValidateRingSize", tc.n, err, tc.wantErr)
	}
}

func TestValidateQueueDepth(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantErr string
	}{
		{0, ""},
		{64, ""},
		{MaxQueueDepth, ""},
		{-1, "negative queue depth"},
		{MaxQueueDepth + 1, "exceeds"},
	} {
		err := ValidateQueueDepth("-max-queue", tc.n)
		checkErr(t, "ValidateQueueDepth", tc.n, err, tc.wantErr)
	}
}

func TestValidateBufferKB(t *testing.T) {
	for _, tc := range []struct {
		kb      int
		wantErr string
	}{
		{0, ""},
		{256, ""},
		{MaxBufferKB, ""},
		{-1, "negative buffer size"},
		{MaxBufferKB + 1, "KiB, not bytes"},
	} {
		err := ValidateBufferKB("-stream-buffer-kb", tc.kb)
		checkErr(t, "ValidateBufferKB", tc.kb, err, tc.wantErr)
	}
}

func TestParseTenantWeights(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    map[string]float64
		wantErr string
	}{
		{"", nil, ""},
		{"gold=3,free=1", map[string]float64{"gold": 3, "free": 1}, ""},
		{" gold = 3 , free = 0.5 ", map[string]float64{"gold": 3, "free": 0.5}, ""},
		{"gold=3,", map[string]float64{"gold": 3}, ""},
		{"gold", nil, "not tenant=weight"},
		{"=3", nil, "not tenant=weight"},
		{"gold=abc", nil, "non-numeric"},
		{"gold=0", nil, "out of range"},
		{"gold=-1", nil, "out of range"},
		{"gold=NaN", nil, "out of range"},
		{"gold=1e30", nil, "out of range"},
		{"gold=3,gold=1", nil, "listed twice"},
		{",", nil, "no tenant=weight pairs"},
	} {
		got, err := ParseTenantWeights("-tenant-weight", tc.spec)
		checkErr(t, "ParseTenantWeights", tc.spec, err, tc.wantErr)
		if tc.wantErr != "" {
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseTenantWeights(%q) = %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for k, v := range tc.want {
			if got[k] != v {
				t.Errorf("ParseTenantWeights(%q)[%q] = %v, want %v", tc.spec, k, got[k], v)
			}
		}
	}
}

func TestValidateLogFormat(t *testing.T) {
	for _, tc := range []struct {
		format  string
		wantErr string
	}{
		{"", ""},
		{"text", ""},
		{"json", ""},
		{"xml", "unknown format"},
	} {
		err := ValidateLogFormat("-log-format", tc.format)
		checkErr(t, "ValidateLogFormat", tc.format, err, tc.wantErr)
	}
}
