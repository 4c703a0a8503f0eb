package cluster

import (
	"errors"
	"fmt"
	"testing"

	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

func TestRetryBackoffShape(t *testing.T) {
	p := RetryPolicy{Max: 5, Base: 100 * simtime.Millisecond, Cap: 500 * simtime.Millisecond}
	want := []simtime.Duration{
		100 * simtime.Millisecond, // attempt 0
		200 * simtime.Millisecond,
		400 * simtime.Millisecond,
		500 * simtime.Millisecond, // capped
		500 * simtime.Millisecond, // stays capped
	}
	for i, w := range want {
		if got := p.Backoff(i); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
	// Zero Base/Cap fall back to the documented defaults.
	d := RetryPolicy{Max: 1}
	if d.Backoff(0) != 250*simtime.Millisecond || d.Backoff(10) != 2*simtime.Second {
		t.Fatalf("default backoff %v / %v", d.Backoff(0), d.Backoff(10))
	}
	if (RetryPolicy{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
}

// TestTransferRetrySucceedsAfterHeal: a transfer into a partitioned rack
// backs off deterministically and lands once the uplink heals — the done
// callback fires exactly once and the retry observer sees every re-attempt.
func TestTransferRetrySucceedsAfterHeal(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddRack("r0", 1<<20, 0)
	c.AddRack("r1", 1<<20, 0)
	c.AddNode("n0", 1, 1<<20).Rack = "r0"
	c.AddNode("n1", 1, 1<<20).Rack = "r1"
	c.Place(ep("a", 0), "n0")
	c.Place(ep("b", 0), "n1")
	c.TransferRetry = RetryPolicy{Max: 4, Base: 250 * simtime.Millisecond, Cap: simtime.Second}
	retries := 0
	c.OnTransferRetry = func(_, _ netsim.Endpoint, _ int, _ error, attempt int) {
		retries = attempt
	}
	c.Rack("r1").Down = true
	s.After(600*simtime.Millisecond, func() { c.Rack("r1").Down = false })
	dones, fails := 0, 0
	var doneAt simtime.Time
	c.TransferChecked(ep("a", 0), ep("b", 0), 1000, func() {
		dones++
		doneAt = s.Now()
	}, func(error) { fails++ })
	s.Run()
	if dones != 1 || fails != 0 {
		t.Fatalf("done=%d fail=%d, want exactly one done", dones, fails)
	}
	if retries == 0 {
		t.Fatal("retry observer never fired")
	}
	if doneAt == 0 {
		t.Fatal("no completion time recorded")
	}
}

// TestTransferRetryExhaustsBudget: a partition that never heals burns the
// whole budget, then fails once with the transient cause preserved.
func TestTransferRetryExhaustsBudget(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddRack("r0", 1<<20, 0)
	c.AddRack("r1", 1<<20, 0)
	c.AddNode("n0", 1, 1<<20).Rack = "r0"
	c.AddNode("n1", 1, 1<<20).Rack = "r1"
	c.Place(ep("a", 0), "n0")
	c.Place(ep("b", 0), "n1")
	c.TransferRetry = RetryPolicy{Max: 3, Base: 100 * simtime.Millisecond, Cap: 200 * simtime.Millisecond}
	c.Rack("r1").Down = true
	retries := 0
	c.OnTransferRetry = func(_, _ netsim.Endpoint, _ int, _ error, attempt int) { retries = attempt }
	dones, fails := 0, 0
	var failErr error
	c.TransferChecked(ep("a", 0), ep("b", 0), 1000, func() { dones++ }, func(err error) {
		fails++
		failErr = err
	})
	s.Run()
	if dones != 0 || fails != 1 {
		t.Fatalf("done=%d fail=%d, want exactly one failure", dones, fails)
	}
	if retries != 3 {
		t.Fatalf("%d re-attempts, want the full budget of 3", retries)
	}
	if !errors.Is(failErr, ErrPartitioned) {
		t.Fatalf("exhausted failure lost its cause: %v", failErr)
	}
}

// TestTransferRetryExhaustsOnDeadNode: a destination node that dies and
// never restarts is retried like a partition — every failure cause is
// transient — until the budget runs out, then fails once with its cause.
func TestTransferRetryExhaustsOnDeadNode(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddNode("n0", 1, 1<<20)
	c.AddNode("n1", 1, 1<<20)
	c.Place(ep("a", 0), "n0")
	c.Place(ep("b", 0), "n1")
	c.MarkDead("n1")
	c.TransferRetry = RetryPolicy{Max: 3}
	var attempts []int
	c.OnTransferRetry = func(_, _ netsim.Endpoint, _ int, err error, attempt int) {
		if !errors.Is(err, ErrInstanceDead) {
			t.Fatalf("retry %d observed cause %v, want ErrInstanceDead", attempt, err)
		}
		attempts = append(attempts, attempt)
	}
	dones, fails := 0, 0
	var failErr error
	c.TransferChecked(ep("a", 0), ep("b", 0), 1000, func() { dones++ }, func(err error) {
		fails++
		failErr = err
	})
	s.Run()
	if dones != 0 || fails != 1 {
		t.Fatalf("done=%d fail=%d, want exactly one failure", dones, fails)
	}
	if fmt.Sprint(attempts) != "[1 2 3]" {
		t.Fatalf("retry attempts %v, want [1 2 3]", attempts)
	}
	if !errors.Is(failErr, ErrInstanceDead) {
		t.Fatalf("want ErrInstanceDead, got %v", failErr)
	}
}

// TestTransferRetryDisabledIsFailFast: the zero policy preserves the
// historical semantics — first detection reports the failure.
func TestTransferRetryDisabledIsFailFast(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddNode("n0", 1, 1<<20)
	c.AddNode("n1", 1, 1<<20)
	c.Place(ep("a", 0), "n0")
	c.Place(ep("b", 0), "n1")
	c.MarkDead("n1")
	fails := 0
	c.TransferChecked(ep("a", 0), ep("b", 0), 1000, nil, func(error) { fails++ })
	s.Run()
	if fails != 1 {
		t.Fatalf("fail fired %d times, want 1", fails)
	}
}

// TestTransferAttemptAllocs: once the cluster's free list of transfer records
// is warm, a transfer allocates nothing on each of its paths — a delivery, a
// partition failure retried into a delivery, and a retry that fails again —
// and a failure reported after its retries allocates only what the
// failure's error does, the same as one reported on the first attempt.
func TestTransferAttemptAllocs(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s)
	c.AddRack("r0", 1<<20, 0)
	c.AddRack("r1", 1<<20, 0)
	c.AddNode("n0", 1, 1<<20).Rack = "r0"
	c.AddNode("n1", 1, 1<<20).Rack = "r1"
	c.Place(ep("a", 0), "n0")
	c.Place(ep("b", 0), "n1")
	r1 := c.Rack("r1")
	var dones, fails, retries int
	done := func() { dones++ }
	fail := func(error) { fails++ }
	heal := func(_, _ netsim.Endpoint, _ int, _ error, _ int) { retries++; r1.Down = false }
	keepDown := func(_, _ netsim.Endpoint, _ int, _ error, _ int) { retries++ }
	transfer := func() {
		c.TransferChecked(ep("a", 0), ep("b", 0), 1000, done, fail)
		s.Run()
	}
	partitioned := func() {
		r1.Down = true
		transfer()
	}
	allocs := func(name string, cycle func()) float64 {
		t.Helper()
		cycle()
		d, f, r := dones, fails, retries
		avg := testing.AllocsPerRun(20, cycle)
		if dones == d && fails == f {
			t.Fatalf("%s: no transfer concluded", name)
		}
		if dones != d && fails != f {
			t.Fatalf("%s: transfers both delivered and failed", name)
		}
		if c.OnTransferRetry != nil && retries == r {
			t.Fatalf("%s: no attempt was retried", name)
		}
		return avg
	}

	if avg := allocs("delivery", transfer); avg != 0 {
		t.Fatalf("a delivered transfer allocates %.2f objects, want 0", avg)
	}
	c.TransferRetry = RetryPolicy{Max: 3, Base: simtime.Millisecond, Cap: simtime.Millisecond}
	c.OnTransferRetry = heal
	if avg := allocs("retry then delivery", partitioned); avg != 0 || fails != 0 {
		t.Fatalf("a partitioned transfer retried into a delivery allocates %.2f objects (%d failed), want 0", avg, fails)
	}
	c.OnTransferRetry = keepDown
	retried := allocs("retries exhausted", partitioned)
	c.TransferRetry, c.OnTransferRetry = RetryPolicy{}, nil
	first := allocs("no retry", partitioned)
	if first == 0 || retried != first {
		t.Fatalf("a failure reported after 3 retries allocates %.2f objects, one reported at once %.2f; want equal and non-zero (the error)", retried, first)
	}
}
