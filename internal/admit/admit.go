// Package admit is v2vserve's overload-safe front door: cost-based
// admission control with weighted-fair queueing across tenants,
// deadline-aware dispatch, and load shedding.
//
// Every request arrives with a static cost estimate (plan.Cost.Units(),
// computed by the planner before admission) and is charged against a
// capacity measured from what the server actually sustains: the cost
// units its completed requests cleared per second of wall time it had
// work in flight, averaged over the last few busy seconds, times a target
// pipeline depth — a concurrency limit expressed in cost units rather than
// a flat slot count, so a burst of cheap stream-copy requests admits far
// more concurrency than a burst of full re-renders.
//
// Queued requests are ordered by deadline within each tenant and tenants
// are served weighted-fair (virtual-time scheduling: admitting a request
// advances its tenant's virtual time by cost/weight; the tenant with the
// smallest virtual time dispatches next). When the bounded queue fills,
// the admission timeout lapses, or a request's deadline cannot plausibly
// be met given the queued cost ahead of it, the request is shed with a
// typed, retryable error carrying a Retry-After estimate — callers map it
// to HTTP 429/503 via HTTPStatus.
package admit

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"v2v/internal/obs"
)

// ErrOverloaded is the sentinel all shed errors unwrap to: the server
// declined the request because it cannot serve it in time, and the client
// should retry after the ShedError's RetryAfter.
var ErrOverloaded = errors.New("admit: overloaded")

// Shed reasons, also used as metric label values.
const (
	// ReasonQueueFull: the bounded queue is at capacity (HTTP 429).
	ReasonQueueFull = "queue_full"
	// ReasonDeadline: the request's deadline cannot plausibly be met given
	// the cost queued ahead of it (HTTP 503).
	ReasonDeadline = "deadline"
	// ReasonTimeout: the admission timeout lapsed while queued (HTTP 503).
	ReasonTimeout = "timeout"
	// ReasonPressure: admission is closed under critical memory pressure
	// (HTTP 503).
	ReasonPressure = "pressure"
	// ReasonShutdown: the controller is draining (HTTP 503).
	ReasonShutdown = "shutdown"
)

// ShedError is the typed load-shedding error. It unwraps to ErrOverloaded
// so callers test errors.Is(err, admit.ErrOverloaded) and read RetryAfter
// for the Retry-After header.
type ShedError struct {
	// Reason is one of the Reason* constants.
	Reason string
	// Tenant is the shed request's tenant bucket.
	Tenant string
	// RetryAfter estimates when the backlog ahead of this request drains.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admit: shed tenant=%s reason=%s retry-after=%s", e.Tenant, e.Reason, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true for every shed.
func (e *ShedError) Unwrap() error { return ErrOverloaded }

// HTTPStatus maps an admission error to its HTTP status: 429 Too Many
// Requests for queue overflow (the client sent too much at once; retrying
// after backoff will succeed), 503 Service Unavailable for deadline,
// timeout, pressure, and shutdown sheds (the server cannot serve this
// request in time regardless of client behavior). Returns 0 for non-shed
// errors.
func HTTPStatus(err error) int {
	var se *ShedError
	if !errors.As(err, &se) {
		return 0
	}
	if se.Reason == ReasonQueueFull {
		return http.StatusTooManyRequests
	}
	return http.StatusServiceUnavailable
}

// Request describes one admission request.
type Request struct {
	// Tenant is the fairness bucket ("" maps to DefaultTenant).
	Tenant string
	// Cost is the plan's estimated cost in plan.Cost units (>= 0; zero is
	// charged as a minimal unit so accounting stays live).
	Cost float64
	// Deadline, when non-zero, is the wall-clock time by which the caller
	// needs the response; admission sheds early when it is infeasible and
	// dispatches earlier deadlines first within a tenant.
	Deadline time.Time
}

// DefaultTenant is the bucket for requests without tenant identification.
const DefaultTenant = "default"

// Config parameterizes a Controller. The zero value is usable: defaults
// are filled in by NewController.
type Config struct {
	// MaxQueue bounds the total number of queued (not yet admitted)
	// requests across all tenants. Default 64.
	MaxQueue int
	// MaxWait bounds how long a request may sit queued before it is shed
	// with ReasonTimeout. Default 10s.
	MaxWait time.Duration
	// Weights maps tenant names to fairness weights (> 0). Tenants not
	// listed get weight 1.
	Weights map[string]float64
	// SlotCap is the hard ceiling on concurrently admitted requests,
	// protecting against cost underestimates. Default DefaultSlotCap; a
	// server sizes it from the parallelism it runs syntheses with.
	SlotCap int
}

// window is the pipeline depth the cost capacity targets: capacity =
// measured throughput × window.
const window = time.Second

// Package-scope instruments: library metrics register once, at package
// scope on the default registry.
var (
	admitQueuedGauge   = obs.Default().Gauge("v2v_admit_queued", "Requests currently queued for admission.")
	admitInflightGauge = obs.Default().Gauge("v2v_admit_inflight", "Requests currently admitted and executing.")
	admitCapacityGauge = obs.Default().Gauge("v2v_admit_capacity_units", "Current admission capacity in plan cost units (0 until throughput is measured).")
	admittedTotal      = obs.Default().Counter("v2v_admit_admitted_total", "Requests admitted.")
	admitWaitSeconds   = obs.Default().Histogram("v2v_admit_wait_seconds", "Wall time requests spent queued before admission.", obs.LatencyBuckets())

	shedQueueFull = obs.Default().Counter(`v2v_admit_shed_total{reason="queue_full"}`, "Requests shed by the admission controller, by reason.")
	shedDeadline  = obs.Default().Counter(`v2v_admit_shed_total{reason="deadline"}`, "Requests shed by the admission controller, by reason.")
	shedTimeout   = obs.Default().Counter(`v2v_admit_shed_total{reason="timeout"}`, "Requests shed by the admission controller, by reason.")
	shedPressure  = obs.Default().Counter(`v2v_admit_shed_total{reason="pressure"}`, "Requests shed by the admission controller, by reason.")
	shedShutdown  = obs.Default().Counter(`v2v_admit_shed_total{reason="shutdown"}`, "Requests shed by the admission controller, by reason.")
)

func shedCounter(reason string) *obs.Counter {
	switch reason {
	case ReasonQueueFull:
		return shedQueueFull
	case ReasonDeadline:
		return shedDeadline
	case ReasonTimeout:
		return shedTimeout
	case ReasonPressure:
		return shedPressure
	default:
		return shedShutdown
	}
}

// waiter is one queued request.
type waiter struct {
	req   Request
	enq   time.Time
	seq   uint64
	ready chan struct{} // closed exactly once, after admitted or shedErr is set
	// admitted / shedErr are written under the controller lock before
	// ready closes and read by the waiter after ready fires.
	admitted bool
	shedErr  *ShedError
	index    int // heap index, -1 when dequeued
}

// waiterHeap orders waiters by deadline (earliest first; no deadline
// sorts last), breaking ties by arrival order.
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	di, dj := h[i].req.Deadline, h[j].req.Deadline
	switch {
	case di.IsZero() && dj.IsZero():
		return h[i].seq < h[j].seq
	case di.IsZero():
		return false
	case dj.IsZero():
		return true
	case di.Equal(dj):
		return h[i].seq < h[j].seq
	default:
		return di.Before(dj)
	}
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}

// tenant is one fairness bucket.
type tenant struct {
	name   string
	weight float64
	// vt is the tenant's virtual finish time: admitting a request advances
	// it by cost/weight, so heavier tenants accumulate virtual time slower
	// and are picked more often.
	vt           float64
	queue        waiterHeap
	queuedCost   float64
	inflight     int
	inflightCost float64
	admitted     int64
	shed         int64
	doneCost     float64 // cost units of completed (released) requests
}

// Controller is the admission controller. Safe for concurrent use.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	tenants  map[string]*tenant
	queued   int
	inflight int

	queuedCost   float64
	inflightCost float64

	seq uint64

	// rate is the server's clearing rate: cost units released per second
	// of wall time with a request in flight, 0 until a release has cleared
	// work. It is cleared / busyWall, two sums that fade with rateMemory,
	// so neither how requests overlap nor how many shard workers share a
	// core moves it; busyFrom opens the interval the next release closes —
	// the last release, or when the server last left idle.
	rate, cleared, busyWall float64
	busyFrom                time.Time
	// pressureFactor scales capacity and slots: 1 normal, < 1 under
	// memory pressure, 0 closes admission entirely.
	pressureFactor float64

	closed bool

	now func() time.Time // test hook
}

// DefaultSlotCap is the SlotCap of a Config that sets none: fixed, so a
// default controller behaves the same on every host.
const DefaultSlotCap = 8

// NewController returns a controller with cfg's zero fields defaulted.
func NewController(cfg Config) *Controller {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 10 * time.Second
	}
	if cfg.SlotCap <= 0 {
		cfg.SlotCap = DefaultSlotCap
	}
	return &Controller{
		cfg:            cfg,
		tenants:        map[string]*tenant{},
		pressureFactor: 1,
		now:            time.Now,
	}
}

func (c *Controller) tenantLocked(name string) *tenant {
	if name == "" {
		name = DefaultTenant
	}
	t, ok := c.tenants[name]
	if !ok {
		w := c.cfg.Weights[name]
		if w <= 0 {
			w = 1
		}
		t = &tenant{name: name, weight: w}
		// A tenant (re)entering the system starts at the minimum active
		// virtual time, so idle periods do not bank an unbounded credit
		// that would later starve everyone else.
		t.vt = c.minActiveVTLocked()
		c.tenants[name] = t
	}
	return t
}

func (c *Controller) minActiveVTLocked() float64 {
	min := math.Inf(1)
	for _, t := range c.tenants {
		if t.inflight > 0 || t.queue.Len() > 0 {
			if t.vt < min {
				min = t.vt
			}
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// effectiveSlotsLocked is the concurrent-request ceiling after pressure
// scaling (always >= 1 unless admission is closed).
func (c *Controller) effectiveSlotsLocked() int {
	if c.pressureFactor <= 0 {
		return 0
	}
	s := int(math.Floor(float64(c.cfg.SlotCap) * c.pressureFactor))
	if s < 1 {
		s = 1
	}
	return s
}

// capacityUnitsLocked is the cost-unit concurrency limit: the measured
// clearing rate times the target pipeline depth, pressure-scaled. +Inf
// until throughput has been measured (the slot cap still binds).
func (c *Controller) capacityUnitsLocked() float64 {
	if c.rate <= 0 {
		return math.Inf(1)
	}
	return c.rate * window.Seconds() * c.pressureFactor
}

// admissibleLocked reports whether one more request of the given cost fits
// right now.
func (c *Controller) admissibleLocked(cost float64) bool {
	slots := c.effectiveSlotsLocked()
	if slots == 0 {
		return false
	}
	if c.inflight == 0 {
		// Progress guarantee: an idle server always admits one request,
		// however expensive — otherwise a cost estimate above capacity
		// could never be served at all.
		return true
	}
	if c.inflight >= slots {
		return false
	}
	return c.inflightCost+cost <= c.capacityUnitsLocked()
}

// retryAfterLocked estimates when the current backlog clears: total
// outstanding cost over the measured clearing rate, clamped to [1s, 60s].
func (c *Controller) retryAfterLocked() time.Duration {
	if c.rate <= 0 {
		return time.Second
	}
	sec := (c.inflightCost + c.queuedCost) / c.rate
	d := time.Duration(sec * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// feasibleLocked reports whether req's deadline can plausibly be met given
// the cost ahead of it. Requires a measured rate; with no measurement the
// check is skipped (optimistic).
func (c *Controller) feasibleLocked(req Request, now time.Time) bool {
	if req.Deadline.IsZero() || c.rate <= 0 {
		return true
	}
	ahead := c.inflightCost + c.queuedCost + req.Cost
	estDone := now.Add(time.Duration(ahead / c.rate * float64(time.Second)))
	return !estDone.After(req.Deadline)
}

func normCost(cost float64) float64 {
	if cost <= 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		return 1 // zero-cost requests still occupy a slot; keep vt moving
	}
	return cost
}

// Acquire admits the request, blocking (deadline-fairly) while the server
// is at capacity. It returns a Ticket the caller must Release exactly
// once, or an error: a *ShedError (unwrapping to ErrOverloaded) when the
// request is shed, or ctx.Err() when the caller's context ends first.
func (c *Controller) Acquire(ctx context.Context, req Request) (*Ticket, error) {
	req.Cost = normCost(req.Cost)
	if req.Tenant == "" {
		req.Tenant = DefaultTenant
	}

	c.mu.Lock()
	now := c.now()
	if c.closed {
		c.mu.Unlock()
		return nil, c.shed(req.Tenant, ReasonShutdown, time.Second)
	}
	if c.pressureFactor <= 0 {
		ra := c.retryAfterLocked()
		c.mu.Unlock()
		return nil, c.shed(req.Tenant, ReasonPressure, ra)
	}
	t := c.tenantLocked(req.Tenant)

	// Immediate admission only when no one is queued — queued waiters have
	// priority over new arrivals (FIFO across the fair queue).
	if c.queued == 0 && c.admissibleLocked(req.Cost) && c.feasibleLocked(req, now) {
		c.admitLocked(t, req)
		c.mu.Unlock()
		admitWaitSeconds.Observe(0)
		return &Ticket{c: c, tenant: req.Tenant, cost: req.Cost}, nil
	}

	if c.queued >= c.cfg.MaxQueue {
		ra := c.retryAfterLocked()
		t.shed++
		c.mu.Unlock()
		return nil, c.shed(req.Tenant, ReasonQueueFull, ra)
	}
	if !c.feasibleLocked(req, now) {
		ra := c.retryAfterLocked()
		t.shed++
		c.mu.Unlock()
		return nil, c.shed(req.Tenant, ReasonDeadline, ra)
	}

	c.seq++
	w := &waiter{req: req, enq: now, seq: c.seq, ready: make(chan struct{})}
	if t.inflight == 0 && t.queue.Len() == 0 {
		// The tenant is re-entering after an idle stretch: forfeit banked
		// virtual-time credit so it cannot starve the active tenants.
		if min := c.minActiveVTLocked(); t.vt < min {
			t.vt = min
		}
	}
	heap.Push(&t.queue, w)
	t.queuedCost += req.Cost
	c.queued++
	c.queuedCost += req.Cost
	admitQueuedGauge.Set(float64(c.queued))
	c.mu.Unlock()

	maxWait := c.cfg.MaxWait
	if !req.Deadline.IsZero() {
		if until := req.Deadline.Sub(now); until < maxWait {
			maxWait = until
		}
	}
	timer := time.NewTimer(maxWait)
	defer timer.Stop()

	select {
	case <-w.ready:
		c.mu.Lock()
		shedErr := w.shedErr
		c.mu.Unlock()
		if shedErr != nil {
			return nil, shedErr
		}
		admitWaitSeconds.Observe(c.now().Sub(now).Seconds())
		return &Ticket{c: c, tenant: req.Tenant, cost: req.Cost}, nil
	case <-ctx.Done():
		c.abandon(w, t)
		return nil, ctx.Err()
	case <-timer.C:
		reason := ReasonTimeout
		if !req.Deadline.IsZero() && !c.now().Add(time.Millisecond).Before(req.Deadline) {
			reason = ReasonDeadline
		}
		if c.abandon(w, t) {
			// The dispatcher admitted us in the same instant the timer
			// fired; the slot has already been handed back. Report the
			// timeout — the caller was not going to run anyway.
			c.mu.Lock()
			ra := c.retryAfterLocked()
			tn := c.tenantLocked(req.Tenant)
			tn.shed++
			c.mu.Unlock()
			return nil, c.shed(req.Tenant, reason, ra)
		}
		c.mu.Lock()
		ra := c.retryAfterLocked()
		t.shed++
		c.mu.Unlock()
		return nil, c.shed(req.Tenant, reason, ra)
	}
}

// abandon removes a waiter that stopped waiting (cancel or timeout).
// Returns true when the dispatcher resolved the waiter concurrently with
// an admission — in that case the granted slot has been handed straight
// back to the controller (the abandoning caller will not run).
func (c *Controller) abandon(w *waiter, t *tenant) (admittedConcurrently bool) {
	c.mu.Lock()
	if w.index < 0 {
		// Already resolved: the dispatcher popped the waiter (admitted or
		// shed) before we could withdraw. Resolution state is final here —
		// admitted/shedErr were written under this lock before w left the
		// heap.
		admitted := w.admitted
		c.mu.Unlock()
		if admitted {
			tk := &Ticket{c: c, tenant: w.req.Tenant, cost: w.req.Cost}
			tk.Release(nil)
		}
		return admitted
	}
	heap.Remove(&t.queue, w.index)
	t.queuedCost -= w.req.Cost
	c.queued--
	c.queuedCost -= w.req.Cost
	admitQueuedGauge.Set(float64(c.queued))
	c.mu.Unlock()
	return false
}

// admitLocked books an admission for req under the lock.
func (c *Controller) admitLocked(t *tenant, req Request) {
	if c.inflight == 0 {
		c.busyFrom = c.now()
	}
	t.vt += req.Cost / t.weight
	t.inflight++
	t.inflightCost += req.Cost
	t.admitted++
	c.inflight++
	c.inflightCost += req.Cost
	admittedTotal.Inc()
	admitInflightGauge.Set(float64(c.inflight))
}

// dispatchLocked admits queued waiters while capacity allows, returning
// the ready channels to close once the lock is released (no channel
// operations under a mutex).
func (c *Controller) dispatchLocked() []chan struct{} {
	var ready []chan struct{}
	for c.queued > 0 {
		// Weighted-fair pick: the backlogged tenant with the least virtual
		// time goes next.
		var pick *tenant
		for _, t := range c.tenants {
			if t.queue.Len() == 0 {
				continue
			}
			if pick == nil || t.vt < pick.vt || (t.vt == pick.vt && t.name < pick.name) {
				pick = t
			}
		}
		if pick == nil {
			break
		}
		head := pick.queue[0]
		if !c.admissibleLocked(head.req.Cost) {
			break
		}
		heap.Pop(&pick.queue)
		pick.queuedCost -= head.req.Cost
		c.queued--
		c.queuedCost -= head.req.Cost
		head.admitted = true
		c.admitLocked(pick, head.req)
		ready = append(ready, head.ready)
	}
	admitQueuedGauge.Set(float64(c.queued))
	admitCapacityGauge.Set(capacityForGauge(c.capacityUnitsLocked()))
	return ready
}

func capacityForGauge(v float64) float64 {
	if math.IsInf(v, 1) {
		return 0 // unmeasured; 0 is the documented "not yet known" value
	}
	return v
}

// shed records a shed and builds its error.
func (c *Controller) shed(tenant, reason string, retryAfter time.Duration) *ShedError {
	shedCounter(reason).Inc()
	return &ShedError{Reason: reason, Tenant: tenant, RetryAfter: retryAfter}
}

// rateMemory is the busy time over which the clearing rate forgets: long
// enough to average a mix of requests (a ten-second render takes about
// half a second), short enough to track a change of phase (copy-heavy to
// render-heavy traffic).
const rateMemory = 5 * time.Second

// Ticket is an admitted request's slot. Release it exactly once.
type Ticket struct {
	c        *Controller
	tenant   string
	cost     float64
	released bool
	mu       sync.Mutex
}

// Cost returns the admitted cost units.
func (t *Ticket) Cost() float64 { return t.cost }

// Release returns the slot and credits the request's cost to the
// controller's clearing rate if it did measured work: rec may be nil (the
// request failed before executing), and a request that ran no stage clears
// nothing. Safe to call more than once; only the first call has effect.
func (t *Ticket) Release(rec *obs.Recorder) {
	t.mu.Lock()
	if t.released {
		t.mu.Unlock()
		return
	}
	t.released = true
	t.mu.Unlock()

	c := t.c
	worked := stageWallTotal(rec) > 0

	c.mu.Lock()
	tn := c.tenantLocked(t.tenant)
	tn.inflight--
	tn.inflightCost -= t.cost
	tn.doneCost += t.cost
	c.inflight--
	c.inflightCost -= t.cost
	now := c.now()
	dt := now.Sub(c.busyFrom).Seconds()
	fade := math.Exp(-dt / rateMemory.Seconds())
	c.busyFrom = now
	c.busyWall = fade*c.busyWall + dt
	c.cleared *= fade
	if worked {
		c.cleared += t.cost
	}
	if c.cleared > 0 && c.busyWall > 0 {
		c.rate = c.cleared / c.busyWall
	}
	admitInflightGauge.Set(float64(c.inflight))
	ready := c.dispatchLocked()
	c.mu.Unlock()
	for _, ch := range ready {
		close(ch)
	}
}

// stageWallTotal sums the recorder's per-stage wall time — the request's
// busy time across decode/filter/encode/copy (shard-parallel work sums).
func stageWallTotal(rec *obs.Recorder) time.Duration {
	if rec == nil {
		return 0
	}
	var total time.Duration
	for s := obs.StageDecode; s <= obs.StageCopy; s++ {
		total += rec.Stage(s).Wall
	}
	return total
}

// SetPressureFactor scales admission capacity: 1 is normal, values in
// (0,1) shrink both the slot cap and the cost capacity, and <= 0 closes
// admission (every Acquire sheds with ReasonPressure). Queued waiters are
// re-dispatched under the new factor; already-admitted requests finish.
func (c *Controller) SetPressureFactor(f float64) {
	if math.IsNaN(f) {
		return
	}
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	c.mu.Lock()
	c.pressureFactor = f
	ready := c.dispatchLocked()
	c.mu.Unlock()
	for _, ch := range ready {
		close(ch)
	}
}

// Close drains the controller: every queued waiter is shed with
// ReasonShutdown and subsequent Acquires shed immediately. In-flight
// tickets remain valid and release normally.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true
	var ready []chan struct{}
	for _, t := range c.tenants {
		for t.queue.Len() > 0 {
			w := heap.Pop(&t.queue).(*waiter)
			t.queuedCost -= w.req.Cost
			c.queued--
			c.queuedCost -= w.req.Cost
			w.shedErr = c.shed(w.req.Tenant, ReasonShutdown, time.Second)
			t.shed++
			ready = append(ready, w.ready)
		}
	}
	admitQueuedGauge.Set(float64(c.queued))
	c.mu.Unlock()
	for _, ch := range ready {
		close(ch)
	}
}

// TenantStats is one tenant's /debug/admit entry.
type TenantStats struct {
	Weight       float64 `json:"weight"`
	Queued       int     `json:"queued"`
	QueuedCost   float64 `json:"queued_cost_units"`
	Inflight     int     `json:"inflight"`
	InflightCost float64 `json:"inflight_cost_units"`
	VirtualTime  float64 `json:"virtual_time"`
	Admitted     int64   `json:"admitted"`
	Shed         int64   `json:"shed"`
	DoneCost     float64 `json:"done_cost_units"`
}

// Stats is a point-in-time controller snapshot for GET /debug/admit.
type Stats struct {
	Queued         int                    `json:"queued"`
	Inflight       int                    `json:"inflight"`
	QueuedCost     float64                `json:"queued_cost_units"`
	InflightCost   float64                `json:"inflight_cost_units"`
	CapacityUnits  float64                `json:"capacity_units"` // 0 until measured
	RateUnits      float64                `json:"rate_units_per_second"`
	PressureFactor float64                `json:"pressure_factor"`
	MaxQueue       int                    `json:"max_queue"`
	SlotCap        int                    `json:"slot_cap"`
	EffectiveSlots int                    `json:"effective_slots"`
	Tenants        map[string]TenantStats `json:"tenants"`
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Queued:         c.queued,
		Inflight:       c.inflight,
		QueuedCost:     c.queuedCost,
		InflightCost:   c.inflightCost,
		CapacityUnits:  capacityForGauge(c.capacityUnitsLocked()),
		RateUnits:      c.rate,
		PressureFactor: c.pressureFactor,
		MaxQueue:       c.cfg.MaxQueue,
		SlotCap:        c.cfg.SlotCap,
		EffectiveSlots: c.effectiveSlotsLocked(),
		Tenants:        make(map[string]TenantStats, len(c.tenants)),
	}
	for name, t := range c.tenants {
		st.Tenants[name] = TenantStats{
			Weight:       t.weight,
			Queued:       t.queue.Len(),
			QueuedCost:   t.queuedCost,
			Inflight:     t.inflight,
			InflightCost: t.inflightCost,
			VirtualTime:  t.vt,
			Admitted:     t.admitted,
			Shed:         t.shed,
			DoneCost:     t.doneCost,
		}
	}
	return st
}
