// Package cliutil holds flag validation shared by the v2v command-line
// binaries. The cache-size and timeout flags all follow one convention
// — 0 means "auto/default", -1 means "disabled" where disabling is
// meaningful — and anything outside that convention (other negatives,
// absurd magnitudes) is rejected up front with a clear error instead of
// silently misbehaving deep inside the engine.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

const (
	// MaxCacheMB caps cache-size flags at 1 TiB expressed in MiB; a
	// larger value is almost certainly a unit mistake (bytes passed
	// where MiB were expected).
	MaxCacheMB = 1 << 20
	// MaxTimeout caps duration flags; a synthesis or drain window
	// beyond a day is a unit mistake.
	MaxTimeout = 24 * time.Hour
	// MaxParallel caps shard parallelism.
	MaxParallel = 4096
	// MaxRingSize caps ring-buffer size flags (the flight recorder);
	// anything larger is a unit mistake.
	MaxRingSize = 1 << 16
	// MaxQueueDepth caps the admission queue depth flag; queueing more
	// requests than this only adds latency, never goodput.
	MaxQueueDepth = 1 << 16
	// MaxTenantWeight caps individual tenant fairness weights.
	MaxTenantWeight = 1 << 20
	// MaxBufferKB caps per-stream buffer flags at 1 GiB expressed in KiB;
	// a larger value is almost certainly a unit mistake (bytes passed
	// where KiB were expected).
	MaxBufferKB = 1 << 20
)

// ValidateCacheMB checks a cache-size flag where -1 disables the cache
// and 0 selects the default/auto size.
func ValidateCacheMB(name string, mb int) error {
	switch {
	case mb < -1:
		return fmt.Errorf("%s: %d is not a size; use -1 to disable, 0 for the default", name, mb)
	case mb > MaxCacheMB:
		return fmt.Errorf("%s: %d MiB exceeds the %d MiB (1 TiB) cap; the value is in MiB, not bytes", name, mb, MaxCacheMB)
	}
	return nil
}

// ValidateTimeout checks a duration flag where 0 means "no limit".
func ValidateTimeout(name string, d time.Duration) error {
	switch {
	case d < 0:
		return fmt.Errorf("%s: negative duration %s; use 0 for no limit", name, d)
	case d > MaxTimeout:
		return fmt.Errorf("%s: %s exceeds the %s cap", name, d, MaxTimeout)
	}
	return nil
}

// ValidateParallel checks a worker-count flag where 0 means
// "GOMAXPROCS".
func ValidateParallel(name string, n int) error {
	switch {
	case n < 0:
		return fmt.Errorf("%s: negative parallelism %d; use 0 for GOMAXPROCS", name, n)
	case n > MaxParallel:
		return fmt.Errorf("%s: parallelism %d exceeds the %d cap", name, n, MaxParallel)
	}
	return nil
}

// ValidateMillis checks a millisecond-threshold flag where 0 disables the
// threshold. The cap matches MaxTimeout.
func ValidateMillis(name string, ms int) error {
	switch {
	case ms < 0:
		return fmt.Errorf("%s: negative threshold %d; use 0 to disable", name, ms)
	case time.Duration(ms)*time.Millisecond > MaxTimeout:
		return fmt.Errorf("%s: %dms exceeds the %s cap", name, ms, MaxTimeout)
	}
	return nil
}

// ValidateRingSize checks a ring-buffer size flag where 0 selects the
// default capacity.
func ValidateRingSize(name string, n int) error {
	switch {
	case n < 0:
		return fmt.Errorf("%s: negative size %d; use 0 for the default", name, n)
	case n > MaxRingSize:
		return fmt.Errorf("%s: size %d exceeds the %d cap", name, n, MaxRingSize)
	}
	return nil
}

// ValidateBufferKB checks a per-stream buffer-size flag where 0 selects
// the default size.
func ValidateBufferKB(name string, kb int) error {
	switch {
	case kb < 0:
		return fmt.Errorf("%s: negative buffer size %d; use 0 for the default", name, kb)
	case kb > MaxBufferKB:
		return fmt.Errorf("%s: %d KiB exceeds the %d KiB (1 GiB) cap; the value is in KiB, not bytes", name, kb, MaxBufferKB)
	}
	return nil
}

// ValidateQueueDepth checks an admission queue-depth flag where 0 selects
// the default depth.
func ValidateQueueDepth(name string, n int) error {
	switch {
	case n < 0:
		return fmt.Errorf("%s: negative queue depth %d; use 0 for the default", name, n)
	case n > MaxQueueDepth:
		return fmt.Errorf("%s: queue depth %d exceeds the %d cap", name, n, MaxQueueDepth)
	}
	return nil
}

// ParseTenantWeights parses a -tenant-weight flag of the form
// "name=weight,name=weight" (e.g. "gold=3,free=1") into a weight map.
// Weights must be positive numbers; tenant names must be non-empty and
// unique. An empty flag value returns an empty (nil) map: every tenant
// then gets weight 1.
func ParseTenantWeights(name, spec string) (map[string]float64, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tenant, weight, ok := strings.Cut(part, "=")
		tenant = strings.TrimSpace(tenant)
		if !ok || tenant == "" {
			return nil, fmt.Errorf("%s: %q is not tenant=weight", name, part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(weight), 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %q has a non-numeric weight", name, part)
		}
		if w <= 0 || w != w || w > MaxTenantWeight {
			return nil, fmt.Errorf("%s: weight %v for tenant %q out of range (0, %d]", name, w, tenant, MaxTenantWeight)
		}
		if _, dup := out[tenant]; dup {
			return nil, fmt.Errorf("%s: tenant %q listed twice", name, tenant)
		}
		out[tenant] = w
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: %q contains no tenant=weight pairs", name, spec)
	}
	return out, nil
}

// ValidateLogFormat checks a -log-format flag; "" and "text" select the
// human-readable handler, "json" selects JSON lines.
func ValidateLogFormat(name, format string) error {
	switch format {
	case "", "text", "json":
		return nil
	}
	return fmt.Errorf("%s: unknown format %q; use text or json", name, format)
}
