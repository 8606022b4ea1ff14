package admit

import (
	"os"
	"path/filepath"
	"testing"
)

func TestNextLevelHysteresis(t *testing.T) {
	cases := []struct {
		cur  PressureLevel
		util float64
		want PressureLevel
	}{
		{PressureNone, 0.50, PressureNone},
		{PressureNone, 0.76, PressureElevated},
		{PressureNone, 0.95, PressureCritical},
		// Elevated holds until utilization falls below the exit band.
		{PressureElevated, 0.70, PressureElevated},
		{PressureElevated, 0.60, PressureNone},
		{PressureElevated, 0.91, PressureCritical},
		// Critical holds above its exit band, steps down, then clears.
		{PressureCritical, 0.85, PressureCritical},
		{PressureCritical, 0.70, PressureElevated},
		{PressureCritical, 0.50, PressureNone},
	}
	for _, tc := range cases {
		if got := nextLevel(tc.cur, tc.util); got != tc.want {
			t.Errorf("nextLevel(%v, %.2f) = %v, want %v", tc.cur, tc.util, got, tc.want)
		}
	}
}

func TestMonitorSyntheticEpisode(t *testing.T) {
	m := NewMonitor(0)
	util := 0.2
	m.SetSampler(func() MemSample {
		return MemSample{Used: uint64(util * 1000), Limit: 1000}
	})

	var levels []PressureLevel
	m.OnChange(func(l PressureLevel) { levels = append(levels, l) })
	if len(levels) != 1 || levels[0] != PressureNone {
		t.Fatalf("initial OnChange = %v, want [none]", levels)
	}

	steps := []struct {
		util float64
		want PressureLevel
	}{
		{0.5, PressureNone},
		{0.8, PressureElevated},
		{0.95, PressureCritical},
		{0.85, PressureCritical}, // hysteresis: still critical
		{0.7, PressureElevated},
		{0.3, PressureNone},
	}
	for _, s := range steps {
		util = s.util
		if got := m.Poll(); got != s.want {
			t.Fatalf("Poll at util %.2f = %v, want %v", s.util, got, s.want)
		}
	}
	// OnChange fired only on transitions: none(init) → elevated →
	// critical → elevated → none.
	want := []PressureLevel{PressureNone, PressureElevated, PressureCritical, PressureElevated, PressureNone}
	if len(levels) != len(want) {
		t.Fatalf("transitions = %v, want %v", levels, want)
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", levels, want)
		}
	}
	if s := m.LastSample(); s.Limit != 1000 {
		t.Errorf("LastSample.Limit = %d, want 1000", s.Limit)
	}
}

func TestPressureLevelFactors(t *testing.T) {
	if PressureNone.Factor() != 1 || PressureElevated.Factor() != 0.5 || PressureCritical.Factor() != 0.25 {
		t.Errorf("factors = %v/%v/%v, want 1/0.5/0.25",
			PressureNone.Factor(), PressureElevated.Factor(), PressureCritical.Factor())
	}
}

func TestReadCgroupLimit(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if got := readCgroupLimit(write("v2", "1073741824\n")); got != 1<<30 {
		t.Errorf("v2 limit = %d, want 1GiB", got)
	}
	if got := readCgroupLimit(write("max", "max\n")); got != 0 {
		t.Errorf("'max' = %d, want 0 (unlimited)", got)
	}
	if got := readCgroupLimit(write("v1nolimit", "9223372036854771712\n")); got != 0 {
		t.Errorf("v1 no-limit sentinel = %d, want 0", got)
	}
	if got := readCgroupLimit(filepath.Join(dir, "missing")); got != 0 {
		t.Errorf("missing file = %d, want 0", got)
	}
}

func TestReadMeminfoTotal(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "meminfo")
	content := "MemTotal:       16384256 kB\nMemFree:         1234 kB\n"
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := readMeminfoTotal(p), uint64(16384256*1024); got != want {
		t.Errorf("MemTotal = %d, want %d", got, want)
	}
	if got := readMeminfoTotal(filepath.Join(dir, "missing")); got != 0 {
		t.Errorf("missing = %d, want 0", got)
	}
}

func TestSystemSampleUsedNonZero(t *testing.T) {
	s := SystemSample()
	if s.Used == 0 {
		t.Error("SystemSample().Used = 0, want > 0 (runtime always holds memory)")
	}
}

func TestUtilizationNoLimit(t *testing.T) {
	if u := (MemSample{Used: 100}).Utilization(); u != 0 {
		t.Errorf("utilization without limit = %v, want 0", u)
	}
}
