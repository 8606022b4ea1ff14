package admit

import (
	"context"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"v2v/internal/obs"
)

// PressureLevel classifies current memory pressure.
type PressureLevel int

const (
	// PressureNone: plenty of headroom; full budgets and capacity.
	PressureNone PressureLevel = iota
	// PressureElevated: above the soft watermark; cache budgets and
	// admission capacity halve.
	PressureElevated
	// PressureCritical: near the limit; budgets and capacity quarter.
	PressureCritical
)

func (l PressureLevel) String() string {
	switch l {
	case PressureElevated:
		return "elevated"
	case PressureCritical:
		return "critical"
	default:
		return "none"
	}
}

// Factor is the budget/capacity multiplier applied at each level.
func (l PressureLevel) Factor() float64 {
	switch l {
	case PressureElevated:
		return 0.5
	case PressureCritical:
		return 0.25
	default:
		return 1
	}
}

// MemSample is one memory-pressure observation: bytes the process holds
// against the limit it must stay under.
type MemSample struct {
	Used  uint64
	Limit uint64
}

// Utilization returns Used/Limit, 0 when no limit is known.
func (s MemSample) Utilization() float64 {
	if s.Limit == 0 {
		return 0
	}
	return float64(s.Used) / float64(s.Limit)
}

// Pressure watermarks, with hysteresis: a level is entered crossing its
// enter threshold and only left falling below its exit threshold, so a
// utilization hovering at a boundary does not flap budgets.
const (
	elevatedEnter = 0.75
	elevatedExit  = 0.65
	criticalEnter = 0.90
	criticalExit  = 0.80
)

var (
	pressureLevelGauge = obs.Default().Gauge("v2v_mem_pressure_level", "Memory pressure level: 0 none, 1 elevated, 2 critical.")
	pressureUtilGauge  = obs.Default().Gauge("v2v_mem_utilization_ratio", "Process heap bytes over the detected memory limit (0 when no limit).")
	pressureEpisodes   = obs.Default().Counter("v2v_mem_pressure_episodes_total", "Transitions from no pressure into elevated or critical pressure.")
)

// Monitor periodically samples memory pressure and drives the registered
// reactions (cache budget, admission controller). The sampler and
// clock are injectable so tests inject synthetic pressure episodes.
type Monitor struct {
	sampler  func() MemSample
	interval time.Duration

	mu    sync.Mutex
	level PressureLevel
	last  MemSample
	onChg []func(PressureLevel)

	wg sync.WaitGroup
}

// NewMonitor returns a monitor reading the process's memory use against
// the detected limit (cgroup v2, cgroup v1, /proc/meminfo, in that
// order). interval <= 0 defaults to 2s. The monitor is idle until Run.
func NewMonitor(interval time.Duration) *Monitor {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	return &Monitor{sampler: SystemSample, interval: interval}
}

// SetSampler replaces the memory sampler (synthetic pressure in tests and
// chaos scenarios). Call before Run.
func (m *Monitor) SetSampler(s func() MemSample) { m.sampler = s }

// OnChange registers a reaction invoked (without the monitor lock held)
// whenever the pressure level changes, and immediately with the current
// level. Reactions must be safe to call from the monitor goroutine.
func (m *Monitor) OnChange(fn func(PressureLevel)) {
	m.mu.Lock()
	m.onChg = append(m.onChg, fn)
	level := m.level
	m.mu.Unlock()
	fn(level)
}

// Level returns the current pressure level.
func (m *Monitor) Level() PressureLevel {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.level
}

// LastSample returns the most recent memory sample.
func (m *Monitor) LastSample() MemSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// Poll takes one sample and applies level transitions, returning the
// (possibly new) level. Exposed for tests and for chaos scenarios that
// step the monitor deterministically instead of running the loop.
func (m *Monitor) Poll() PressureLevel {
	sample := m.sampler()
	util := sample.Utilization()

	m.mu.Lock()
	old := m.level
	next := nextLevel(old, util)
	m.level = next
	m.last = sample
	var fns []func(PressureLevel)
	if next != old {
		fns = append(fns, m.onChg...)
	}
	m.mu.Unlock()

	pressureUtilGauge.Set(util)
	pressureLevelGauge.Set(float64(next))
	if next != old && old == PressureNone {
		pressureEpisodes.Inc()
	}
	for _, fn := range fns {
		fn(next)
	}
	return next
}

// nextLevel applies the hysteresis bands to the current utilization.
func nextLevel(cur PressureLevel, util float64) PressureLevel {
	switch cur {
	case PressureCritical:
		switch {
		case util >= criticalExit:
			return PressureCritical
		case util >= elevatedExit:
			return PressureElevated
		default:
			return PressureNone
		}
	case PressureElevated:
		switch {
		case util >= criticalEnter:
			return PressureCritical
		case util >= elevatedExit:
			return PressureElevated
		default:
			return PressureNone
		}
	default:
		switch {
		case util >= criticalEnter:
			return PressureCritical
		case util >= elevatedEnter:
			return PressureElevated
		default:
			return PressureNone
		}
	}
}

// Run polls until ctx ends. Call in its own goroutine; Wait() joins it.
func (m *Monitor) Run(ctx context.Context) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(m.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				m.Poll()
			}
		}
	}()
}

// Wait joins the polling goroutine after its context ended.
func (m *Monitor) Wait() { m.wg.Wait() }

// SystemSample reads the process's heap footprint from runtime/metrics
// against the detected memory limit. With no detectable limit (Limit 0)
// utilization reads as zero and pressure never engages — the conservative
// default for unconstrained dev machines.
func SystemSample() MemSample {
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(samples)
	var used uint64
	if samples[0].Value.Kind() == metrics.KindUint64 {
		used = samples[0].Value.Uint64()
	}
	return MemSample{Used: used, Limit: detectMemLimit()}
}

// detectMemLimit finds the tightest applicable memory limit: cgroup v2,
// then cgroup v1, then total system memory from /proc/meminfo. Returns 0
// when nothing is readable (non-Linux, sandboxes).
func detectMemLimit() uint64 {
	if v := readCgroupLimit("/sys/fs/cgroup/memory.max"); v > 0 {
		return v
	}
	if v := readCgroupLimit("/sys/fs/cgroup/memory/memory.limit_in_bytes"); v > 0 {
		return v
	}
	return readMeminfoTotal("/proc/meminfo")
}

// readCgroupLimit parses a cgroup memory-limit file. "max" (v2) and the
// v1 no-limit sentinel (huge values >= 2^62) read as unlimited (0).
func readCgroupLimit(path string) uint64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(b))
	if s == "max" {
		return 0
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil || v >= 1<<62 {
		return 0
	}
	return v
}

// readMeminfoTotal parses MemTotal from a /proc/meminfo-format file.
func readMeminfoTotal(path string) uint64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "MemTotal:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}
