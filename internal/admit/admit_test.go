package admit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"v2v/internal/obs"
)

func mustAcquire(t *testing.T, c *Controller, req Request) *Ticket {
	t.Helper()
	tk, err := c.Acquire(context.Background(), req)
	if err != nil {
		t.Fatalf("Acquire(%+v) = %v", req, err)
	}
	return tk
}

func waitQueued(t *testing.T, c *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Queued == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queued = %d, want %d", c.Stats().Queued, n)
}

// TestWeightedFairShare verifies that a 3:1-weighted pair of tenants
// bursting together is admitted in a 3:1 ratio (within ±15%), the
// acceptance bound for the overload scenario.
func TestWeightedFairShare(t *testing.T) {
	c := NewController(Config{
		SlotCap:  1,
		MaxQueue: 200,
		MaxWait:  30 * time.Second,
		Weights:  map[string]float64{"a": 3, "b": 1},
	})

	holder := mustAcquire(t, c, Request{Tenant: "a", Cost: 1})

	const perTenant = 40
	order := make(chan string, 2*perTenant)
	var wg sync.WaitGroup
	for _, tenant := range []string{"a", "b"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tn string) {
				defer wg.Done()
				tk := mustAcquire(t, c, Request{Tenant: tn, Cost: 1})
				order <- tn
				tk.Release(nil)
			}(tenant)
		}
	}
	waitQueued(t, c, 2*perTenant)
	holder.Release(nil) // start the deterministic drain
	wg.Wait()
	close(order)

	// The fair share shows in the drain prefix: while both tenants are
	// backlogged, admissions should split 3:1. Once a queue empties the
	// remainder belongs to the other tenant, so only the first perTenant*4/3
	// admissions (b's backlog lifetime) are meaningful; use the first 40.
	counts := map[string]int{}
	seen := 0
	for tn := range order {
		if seen < 40 {
			counts[tn]++
		}
		seen++
	}
	total := counts["a"] + counts["b"]
	shareA := float64(counts["a"]) / float64(total)
	if math.Abs(shareA-0.75) > 0.15 {
		t.Errorf("tenant a share = %.2f (a=%d b=%d), want 0.75 ±0.15", shareA, counts["a"], counts["b"])
	}
}

// TestDeadlineOrderedDispatch verifies earlier deadlines dispatch first
// within a tenant, with no-deadline requests last.
func TestDeadlineOrderedDispatch(t *testing.T) {
	c := NewController(Config{SlotCap: 1, MaxQueue: 10, MaxWait: 30 * time.Second})
	holder := mustAcquire(t, c, Request{Cost: 1})

	now := time.Now()
	deadlines := []time.Duration{10 * time.Minute, 5 * time.Minute, 20 * time.Minute, 0}
	labels := []string{"d10", "d5", "d20", "none"}
	order := make(chan string, len(deadlines))
	var wg sync.WaitGroup
	for i := range deadlines {
		var dl time.Time
		if deadlines[i] > 0 {
			dl = now.Add(deadlines[i])
		}
		wg.Add(1)
		go func(label string, dl time.Time) {
			defer wg.Done()
			tk := mustAcquire(t, c, Request{Cost: 1, Deadline: dl})
			order <- label
			tk.Release(nil)
		}(labels[i], dl)
		// Enqueue one at a time so arrival order is fixed and only the
		// deadline governs dispatch order.
		waitQueued(t, c, i+1)
	}
	holder.Release(nil)
	wg.Wait()
	close(order)

	var got []string
	for l := range order {
		got = append(got, l)
	}
	want := []string{"d5", "d10", "d20", "none"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
}

func TestQueueFullSheds429(t *testing.T) {
	c := NewController(Config{SlotCap: 1, MaxQueue: 2, MaxWait: 30 * time.Second})
	holder := mustAcquire(t, c, Request{Cost: 1})
	defer holder.Release(nil)

	ctx, cancel := context.WithCancel(context.Background())
	fillerErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Acquire(ctx, Request{Cost: 1})
			fillerErrs <- err
		}()
	}
	waitQueued(t, c, 2)

	_, err := c.Acquire(context.Background(), Request{Cost: 1})
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShedError", err)
	}
	if se.Reason != ReasonQueueFull {
		t.Errorf("reason = %q, want %q", se.Reason, ReasonQueueFull)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Error("shed error does not unwrap to ErrOverloaded")
	}
	if got := HTTPStatus(err); got != http.StatusTooManyRequests {
		t.Errorf("HTTPStatus = %d, want 429", got)
	}
	if se.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", se.RetryAfter)
	}
	cancel()
	<-fillerErrs
	<-fillerErrs
}

func TestInfeasibleDeadlineSheds503(t *testing.T) {
	c := NewController(Config{SlotCap: 4, MaxQueue: 10, MaxWait: 30 * time.Second})
	// Teach the controller its throughput: 1 cost unit per second.
	c.mu.Lock()
	c.rate = 1
	c.mu.Unlock()

	holder := mustAcquire(t, c, Request{Cost: 50})
	defer holder.Release(nil)

	// 100 more units behind 50 in flight at 1 unit/s cannot finish in 1s.
	_, err := c.Acquire(context.Background(), Request{Cost: 100, Deadline: time.Now().Add(time.Second)})
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonDeadline {
		t.Fatalf("err = %v, want deadline shed", err)
	}
	if got := HTTPStatus(err); got != http.StatusServiceUnavailable {
		t.Errorf("HTTPStatus = %d, want 503", got)
	}
	if se.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", se.RetryAfter)
	}
}

func TestAdmitTimeout(t *testing.T) {
	c := NewController(Config{SlotCap: 1, MaxQueue: 10, MaxWait: 20 * time.Millisecond})
	holder := mustAcquire(t, c, Request{Cost: 1})
	defer holder.Release(nil)

	start := time.Now()
	_, err := c.Acquire(context.Background(), Request{Cost: 1})
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonTimeout {
		t.Fatalf("err = %v, want timeout shed", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timed out after %v, want ~20ms", elapsed)
	}
	if c.Stats().Queued != 0 {
		t.Errorf("queued = %d after timeout, want 0", c.Stats().Queued)
	}
}

func TestCancelWhileQueuedNoLeak(t *testing.T) {
	c := NewController(Config{SlotCap: 1, MaxQueue: 100, MaxWait: 30 * time.Second})
	holder := mustAcquire(t, c, Request{Cost: 1})

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	const n = 20
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Acquire(ctx, Request{Cost: 1})
			errs <- err
		}()
	}
	waitQueued(t, c, n)
	cancel()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	st := c.Stats()
	if st.Queued != 0 {
		t.Errorf("queued = %d after cancel, want 0", st.Queued)
	}
	if st.Inflight != 1 {
		t.Errorf("inflight = %d, want 1 (the holder)", st.Inflight)
	}
	holder.Release(nil)

	// All Acquire goroutines must have exited (no leaked dispatch or
	// timer goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines = %d, want <= %d", g, before)
	}
}

// worked returns the recorder of a request whose stages took wall.
func worked(wall time.Duration) *obs.Recorder {
	rec := obs.NewRecorder()
	rec.StageObserve(obs.StageEncode, 10, 1000, wall)
	return rec
}

// The rate is the server's: cost released per second with work in flight.
// Whether two requests overlap, and how much stage wall their shards report
// (it doubles when twice as many workers as cores take turns), must not
// move it; idle time and a request that did no work add nothing.
func TestReleaseMeasuresThroughput(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		for _, wall := range []time.Duration{time.Second, 4 * time.Second} {
			c := NewController(Config{SlotCap: 4, MaxQueue: 10, MaxWait: time.Second})
			clock := time.Unix(0, 0)
			c.now = func() time.Time { return clock }
			a := mustAcquire(t, c, Request{Cost: 10})
			if overlap {
				b := mustAcquire(t, c, Request{Cost: 10})
				clock = clock.Add(2 * time.Second)
				a.Release(worked(wall))
				b.Release(worked(wall))
			} else {
				clock = clock.Add(time.Second)
				a.Release(worked(wall))
				clock = clock.Add(time.Hour) // idle
				b := mustAcquire(t, c, Request{Cost: 10})
				clock = clock.Add(time.Second)
				b.Release(worked(wall))
			}
			mustAcquire(t, c, Request{Cost: 1000}).Release(nil)

			// 20 units in 2 busy seconds.
			st := c.Stats()
			if math.Abs(st.RateUnits-10) > 0.01 {
				t.Errorf("overlap=%v stage wall=%v: rate = %v, want 10", overlap, wall, st.RateUnits)
			}
			if math.Abs(st.CapacityUnits-10) > 0.01 {
				t.Errorf("capacity = %v, want rate x 1s window", st.CapacityUnits)
			}
			if st.Inflight != 0 {
				t.Errorf("inflight = %d, want 0", st.Inflight)
			}
		}
	}
}

func TestTicketDoubleReleaseHarmless(t *testing.T) {
	c := NewController(Config{SlotCap: 2, MaxQueue: 4, MaxWait: time.Second})
	tk := mustAcquire(t, c, Request{Cost: 1})
	tk.Release(nil)
	tk.Release(nil)
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("inflight = %d after double release, want 0", st.Inflight)
	}
}

func TestPressureClosesAndTightensAdmission(t *testing.T) {
	c := NewController(Config{SlotCap: 4, MaxQueue: 10, MaxWait: 50 * time.Millisecond})

	c.SetPressureFactor(0)
	_, err := c.Acquire(context.Background(), Request{Cost: 1})
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonPressure {
		t.Fatalf("err = %v, want pressure shed", err)
	}
	if got := HTTPStatus(err); got != http.StatusServiceUnavailable {
		t.Errorf("HTTPStatus = %d, want 503", got)
	}

	c.SetPressureFactor(0.5)
	if st := c.Stats(); st.EffectiveSlots != 2 {
		t.Errorf("effective slots at 0.5 pressure = %d, want 2", st.EffectiveSlots)
	}
	t1 := mustAcquire(t, c, Request{Cost: 1})
	t2 := mustAcquire(t, c, Request{Cost: 1})
	if _, err := c.Acquire(context.Background(), Request{Cost: 1}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("third acquire under 0.5 pressure = %v, want overloaded", err)
	}

	c.SetPressureFactor(1)
	t3 := mustAcquire(t, c, Request{Cost: 1})
	t1.Release(nil)
	t2.Release(nil)
	t3.Release(nil)
}

func TestCloseShedsQueuedWaiters(t *testing.T) {
	c := NewController(Config{SlotCap: 1, MaxQueue: 10, MaxWait: 30 * time.Second})
	holder := mustAcquire(t, c, Request{Cost: 1})

	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := c.Acquire(context.Background(), Request{Cost: 1})
			errs <- err
		}()
	}
	waitQueued(t, c, 3)
	c.Close()
	for i := 0; i < 3; i++ {
		err := <-errs
		var se *ShedError
		if !errors.As(err, &se) || se.Reason != ReasonShutdown {
			t.Fatalf("err = %v, want shutdown shed", err)
		}
	}
	if _, err := c.Acquire(context.Background(), Request{Cost: 1}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("acquire after close = %v, want overloaded", err)
	}
	holder.Release(nil)
}

// TestConcurrentBurstUnderRace hammers the controller from many tenants
// with mixed costs, cancels, and releases — correctness is "no deadlock,
// no negative accounting, everything returns" (run with -race).
func TestConcurrentBurstUnderRace(t *testing.T) {
	c := NewController(Config{
		SlotCap: 4, MaxQueue: 64, MaxWait: 200 * time.Millisecond,
		Weights: map[string]float64{"t0": 3, "t1": 1},
	})
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc = func() {}
			if i%7 == 0 {
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%13)*time.Millisecond)
			}
			defer cancel()
			tenant := fmt.Sprintf("t%d", i%3)
			var dl time.Time
			if i%5 == 0 {
				dl = time.Now().Add(time.Duration(50+i%100) * time.Millisecond)
			}
			tk, err := c.Acquire(ctx, Request{Tenant: tenant, Cost: float64(1 + i%17), Deadline: dl})
			if err != nil {
				return
			}
			if i%2 == 0 {
				rec := obs.NewRecorder()
				rec.StageObserve(obs.StageEncode, 1, 100, 100*time.Microsecond)
				tk.Release(rec)
			} else {
				tk.Release(nil)
			}
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("after burst: inflight=%d queued=%d, want 0/0", st.Inflight, st.Queued)
	}
	if st.InflightCost != 0 || st.QueuedCost < 0 {
		t.Errorf("after burst: inflightCost=%v queuedCost=%v", st.InflightCost, st.QueuedCost)
	}
}
